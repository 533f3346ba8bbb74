"""The names in ccsym that `bench/tracing.py` binds.

The traced benchmark run (`bench/run.py --trace 1`) wraps the public
module-level functions of ccsym and reads the arguments and the result
of `chen.transport` by name; a refactor that renames or moves one of
these would break that run and nothing else.  It finds the forms
through `ccsym.chen.DifferentialForm` and puts a span on any `eval` a
form class defines; forms sample only in columns, so none does.
Products take microseconds and get no span, so the product kernel stays
a method.
"""

import inspect

from ccsym import algebra, chen, laurent, symbol
from ccsym.algebra import AlgebraElement, AlgebraSignature, Backend
from ccsym.chen import QuadratureConfig
from ccsym.forms import BinomialLogForm, DlogForm, SimplePole
from ccsym.paths import circle
from ccsym.ratfunc import RationalFunctionA


def test_transport_takes_a_path_and_a_config_by_name_and_returns_coefficients():
    forms, path, cfg = [SimplePole(AlgebraSignature((), 1, Backend.FLOAT), 0)], circle(0, 0.5), QuadratureConfig(4)
    bound = inspect.signature(chen.transport).bind(forms, path, 1, cfg)
    assert bound.arguments["path"].segments == path.segments
    assert bound.arguments["cfg"].steps_per_segment == 4
    assert isinstance(chen.transport(*bound.args).coeffs, dict)


def test_the_wrapped_functions_and_methods_exist():
    for name in ("dlog_eval", "eval", "expand_at"):
        assert inspect.isfunction(vars(RationalFunctionA)[name])
    # `verify weil` and `main-theorem` evaluate through local_symbols, `symbol` through cc_symbol_series
    bound = ((chen, "transport"), (laurent, "factorize"), (symbol, "cc_symbol_series"), (symbol, "local_symbols"))
    for module, name in bound:
        fn = vars(module)[name]
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_the_product_kernel_is_no_module_level_function():
    # a module-level public function would get a span around every product
    kernel = AlgebraElement.dot
    assert inspect.ismethod(kernel) and kernel.__self__ is AlgebraElement
    assert not any(obj is kernel.__func__ for obj in vars(algebra).values())


def test_the_forms_derive_from_the_base_chen_exposes_and_define_no_eval():
    assert all(cls.__bases__ == (chen.DifferentialForm,) for cls in (SimplePole, DlogForm, BinomialLogForm))
    pending, forms = list(chen.DifferentialForm.__subclasses__()), []
    while pending:
        forms.append(cls := pending.pop())
        pending.extend(cls.__subclasses__())
    assert {SimplePole, DlogForm, BinomialLogForm} <= set(forms)
    assert [cls for cls in forms if "eval" in vars(cls)] == []
