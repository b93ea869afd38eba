import os
import sys

# the benchmark's modules are scripts next to run.py, not a package
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
