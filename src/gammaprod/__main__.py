"""python -m gammaprod: the same command line as the gammaprod entry point."""

from .cli import main

if __name__ == "__main__":
    main()
