import sys
from pathlib import Path

from hypothesis import Phase, settings

# the brute-force oracle lives beside the tests
sys.path.insert(0, str(Path(__file__).parent))

# scripts/mutants.py selects this profile: a mutant is killed by its first
# failing example, so shrinking that example changes no verdict
settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
