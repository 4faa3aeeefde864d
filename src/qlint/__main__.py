"""Entry point for `python -m qlint`."""

from .cli import main

if __name__ == "__main__":
    main()
