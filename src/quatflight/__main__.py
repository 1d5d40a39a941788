"""``python -m quatflight``: the same command line as the ``quatflight`` script."""

from .cli import main

if __name__ == "__main__":
    main()
