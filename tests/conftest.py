import sys
from pathlib import Path

# the oracle helpers live next to the tests, not inside the package
sys.path.insert(0, str(Path(__file__).parent))
