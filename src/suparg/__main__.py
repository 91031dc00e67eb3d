"""`python -m suparg`: the command line of suparg.cli."""
from .cli import main

main()
