import sys
from pathlib import Path

# the benchmark imports squaretori from the checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
