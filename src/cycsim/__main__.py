"""`python -m cycsim`: the same command line as the `cycsim` script."""

from .driver import main

if __name__ == "__main__":
    main()
