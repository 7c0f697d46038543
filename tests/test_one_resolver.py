"""Every table row reaches its prime through one function: the report, its
shared-prime check and `construct assemble` all consume that resolver, so
they cannot resolve a row differently, ingest alone proves the order-m
rows they read, and one verdict says whether an order-m list holds the
primes the rows index.  One rule, membership in
Phi_m(10) freed of the primes of m, decided by gcd and `pow`, says whether
a value may stand for an order-m prime, in order tables and constructions
alike.  Likewise one limb
sweep, `residues_mod`, reduces a big integer modulo many small ones, one
reader, `LineReader`, gives every input file's loader its lines and field
rules, one parser, `parse_int`, turns every text the program reads into an
integer, and a factoring budget is chosen in three places only."""

import ast
from pathlib import Path

import digitcover

PACKAGE = Path(digitcover.__file__).parent


def callers(name: str) -> set[str]:
    """`module:function` for every function in the package that calls `name`."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.add(f"{path.stem}:{func.name}")
    return found


def test_rows_reach_their_prime_in_one_place():
    # resolve_assignment serves (m, rho) pairs without a bundle, for the
    # benchmark; inside the package only resolved_rows indexes an order-m list
    assert callers("resolve_assignment") == set()
    assert callers("nth") == {"bundle:resolved_rows", "bundle:resolve_assignment"}


def test_order_rows_are_proved_in_one_place():
    # ingest proves every row of the order file once; the report's probable
    # rows and order counts, and construct assemble's probable_primes and
    # its "only N primes" wording, all read the proved TableBundle.orders
    assert callers("prove_order_primes") == {"bundle:ingest_tables"}


def test_order_lists_get_one_verdict():
    # the report's order counts, enough or short
    assert callers("OrderCountCheck") == {"bundle:reproduce_report"}


def test_prime_grouping_has_one_definition():
    # assemble groups nothing: crt_combine refuses divisors that share a
    # prime with different residues
    assert callers("prime_uses") == {"bundle:_shared_checks"}


def test_only_resolution_lists_order_m_primes():
    # order-table validation decides membership in Phi_m(10) by gcd and pow
    # instead, and a bundle reads its order-m primes from its proved rows
    # alone: resolve_assignment serves the benchmark's (m, rho) pairs
    assert callers("primes_of_order") == {
        "bundle:resolve_assignment",
        "cli:cmd_order_primes",
    }


def test_only_construction_tests_orders():
    # constructions and order tables test membership in Phi_m(10) freed of
    # the primes of m by gcd and pow, without computing it, through
    # order_divisor_violation; the scan's numpy filter is has_order's own
    # test, and has_order serves only the benchmark
    assert callers("has_order") == set()


def test_order_membership_has_one_definition():
    assert callers("order_divisor_violation") == {
        "cyclotomic:_row_check",
        "construction:validate",
    }
    # Phi_m(10) itself serves only the scan and the completeness of a proof
    assert callers("_order_cofactor") == {
        "cyclotomic:_primes_of_order_cached",
        "cyclotomic:prove_order_primes",
    }


def test_construction_proves_no_primes():
    # an order-m divisor serves whether or not it is prime; only the
    # property-(*) sample's spot checks test primality
    testers = callers("is_prime") | callers("has_order")
    assert {c for c in testers if c.startswith("construction:")} == {
        "construction:verify_property_star_sample"
    }


def limb_folds() -> set[str]:
    """`module:function` for every package function that folds an integer
    into 32-bit limbs: a 32-bit shift or the 0xFFFFFFFF limb mask."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                shift = isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.LShift, ast.RShift)
                ) and any(getattr(c, "value", None) == 32 for c in ast.walk(node.right))
                mask = isinstance(node, ast.Constant) and node.value == 0xFFFFFFFF
                if shift or mask:
                    found.add(f"{path.stem}:{func.name}")
    return found


def test_one_residue_sweep():
    # trial division from 2^64 up and the order-m scan reduce a big integer
    # modulo many small ones through the same limb fold
    assert callers("residues_mod") == {
        "arith:_trial_primes", "cyclotomic:_primes_of_order_cached"
    }
    assert limb_folds() == {"arith:residues_mod"}


def test_loaders_read_lines_only_through_the_reader():
    # covering files, order tables and constructions share one line loop,
    # one location format and one set of field rules
    assert callers("LineReader") == {
        "bundle:parse_covering_file",
        "cyclotomic:load_order_table",
        "construction:load_construction",
    }
    assert callers("splitlines") == {"cyclotomic:__iter__"}
    assert callers("read_text") == {"cyclotomic:__iter__", "bundle:_check_manifest"}
    assert callers("parse_int") == {"cyclotomic:number", "cli:_int", "bundle:ingest_tables"}


def test_text_becomes_an_integer_in_one_place():
    # file fields, command-line arguments and the digit in a covering file's
    # name all go through parse_int's one decimal rule; every other int()
    # converts a numpy scalar
    assert callers("int") == {
        "cyclotomic:parse_int",
        "covering:is_covering_naive",
        "covering:_least_uncovered",
        "delicate:find_first_digitally_delicate",
    }
    # argparse's own int() would accept what parse_int refuses, and print
    # its usage block instead of the one error line
    (build,) = [
        f for f in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(f, ast.FunctionDef) and f.name == "build_parser"
    ]
    types = [k for k in ast.walk(build) if isinstance(k, ast.keyword) and k.arg == "type"]
    assert types == []


def test_one_modulus_bound():
    # MODULUS_BOUND is the one spelling of the loaders' bound
    squares = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and getattr(node.left, "attr", None) == "trial_bound"
    ]
    assert len(squares) == 1 and squares[0].startswith("cyclotomic:")


def test_budgets_are_chosen_in_three_places():
    # DEFAULT_BUDGET, covering's LCM_BUDGET and order primes' --rho-iterations:
    # a bundle spends no budget, and pm1_split takes the two numbers it spends
    built = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FactorBudget":
                    name = getattr(stmt, "name", None) or ast.unparse(stmt.targets[0])
                    built.append(f"{path.stem}:{name}")
    assert sorted(built) == [
        "arith:DEFAULT_BUDGET", "cli:cmd_order_primes", "covering:LCM_BUDGET"
    ]
    # resolve_assignment serves the benchmark's (m, rho, budget) calls
    takers = {
        f"{path.stem}:{func.name}"
        for path in (PACKAGE / "bundle.py", PACKAGE / "cli.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        and any(getattr(a, "arg", None) == "budget" for a in ast.walk(func.args))
    }
    assert takers == {"bundle:resolve_assignment"}
