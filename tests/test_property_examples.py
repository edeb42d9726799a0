"""Coverage floors of the derandomized property tests.

``settings(derandomize=True)`` seeds a property test from a hash of its
source, so any edit to the test redraws its generated cases, and a case the
test exists to cover can silently drop out.  An explicit ``@example`` is run
whatever the draw: every derandomized test that draws a model structure must
pin each structure it draws with one.
"""

import importlib
import pathlib

from thermbench.regressors import Structure


def _property_tests():
    """Every hypothesis test of this directory's test modules, by name."""
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, test in vars(module).items():
            if name.startswith("test_") and hasattr(test, "hypothesis"):
                yield f"{path.stem}::{name}", test


def _structures(strategy) -> set:
    """The structures a ``sampled_from`` strategy draws (none for others)."""
    strategy = getattr(strategy, "wrapped_strategy", strategy)
    return {e for e in getattr(strategy, "elements", ()) if isinstance(e, Structure)}


def test_every_drawn_structure_has_an_explicit_example():
    checked = []
    for name, test in _property_tests():
        if not test._hypothesis_internal_use_settings.derandomize:
            continue
        # @example above @given marks the wrapper, below it the test itself
        examples = [*getattr(test, "hypothesis_explicit_examples", ()),
                    *getattr(test.hypothesis.inner_test, "hypothesis_explicit_examples", ())]
        for arg, strategy in test.hypothesis._given_kwargs.items():
            drawn = _structures(strategy)
            if drawn:
                checked.append(name)
                pinned = {ex.kwargs.get(arg) for ex in examples}
                missing = sorted(s.value for s in drawn - pinned)
                assert not missing, f"{name} draws {missing} with no explicit example"
    # the four such tests at the time of writing: the search itself must work
    assert len(checked) >= 4, checked
