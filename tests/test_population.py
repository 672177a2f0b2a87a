"""Loader and distinct-value grouping tests."""

from __future__ import annotations

import io
import math
import pickle
import random
import tracemalloc

import pytest

import stratopt.population as population
from stratopt import (
    DataError,
    EmptyPopulationError,
    FrequencyTable,
    InputSchemaError,
    Population,
    build_frequency_table,
    load_population,
)

from helpers import DESK_CSV, reference_load_population, table_from_pairs

# cell forms the differential corpus mixes: float() accepts every NUMBERS
# entry; REJECTS each fail one check; PADS are ASCII and Unicode whitespace
NUMBERS = ("0", "1", "2.5", "-0.0", "0.0", "1_000", "+.5", "1e3", "-7", "3.25e-2", "\u0661\u0662")
REJECTS = ("1e309", "-inf", "inf", "nan", "bogus", "", "1__0", "0x10", "1,5", "2\x003")
PADS = ("", "", " ", "  ", "\t", "\u00a0", "\u2003")


class TestLoadPopulation:
    def test_y_defaults_to_x(self):
        pop = load_population(io.StringIO("x\n5\n7\n"))
        assert pop.groups == {5.0: [5.0], 7.0: [7.0]}

    def test_named_y_column(self):
        pop = load_population(io.StringIO("x,y\n2,20\n1,10\n"), "x", "y")
        assert pop.groups == {2.0: [20.0], 1.0: [10.0]}

    def test_ties_keep_input_order_of_y(self):
        """Groups are keyed in first-appearance order; each keeps its y
        values in input order."""
        pop = load_population(io.StringIO("x,y\n5,1\n3,9\n5,2\n"), "x", "y")
        assert list(pop.groups.items()) == [(5.0, [1.0, 2.0]), (3.0, [9.0])]

    def test_tab_delimiter(self):
        pop = load_population(io.StringIO("x\ty\n1\t10\n2\t20\n"), "x", "y", delimiter="\t")
        assert pop.groups == {1.0: [10.0], 2.0: [20.0]}

    def test_scientific_notation(self):
        pop = load_population(io.StringIO("x\n1e3\n2.5e-1\n"))
        assert pop.groups == {1000.0: [1000.0], 0.25: [0.25]}

    def test_single_row_is_a_valid_load(self):
        pop = load_population(io.StringIO("x\n5\n"))
        assert pop.N == 1

    def test_missing_x_column(self):
        with pytest.raises(InputSchemaError, match="'size'"):
            load_population(io.StringIO("x\n1\n"), x_column="size")

    def test_missing_y_column(self):
        with pytest.raises(InputSchemaError, match="'y'"):
            load_population(io.StringIO("x\n1\n"), "x", "y")

    def test_unparsable_cell_names_the_row(self):
        with pytest.raises(DataError, match="row 3"):
            load_population(io.StringIO("x\n1\nbogus\n2\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="row 2"):
            load_population(io.StringIO(f"x\n{bad}\n1\n"))

    def test_short_row_names_the_row(self):
        with pytest.raises(DataError, match="row 2"):
            load_population(io.StringIO("x,y\n1\n"), "x", "y")

    @pytest.mark.parametrize(
        "text,columns",
        [
            pytest.param('x\n"1\n"\nbogus\n', ("x",), id="bad-cell"),
            pytest.param('x,y\n"1\n",2\n3\n', ("x", "y"), id="missing-column"),
        ],
    )
    def test_row_number_is_the_line_after_a_multiline_field(self, text, columns):
        """A quoted field spanning lines 2-3 must not shift the number of
        the bad record on line 4 back to its record count, 3."""
        with pytest.raises(DataError, match="^row 4: "):
            load_population(io.StringIO(text), *columns)

    @pytest.mark.parametrize(
        "text,expected",
        [
            pytest.param('"x"y\n1\n', "row 1: malformed CSV: ',' expected after '\"'", id="header"),
            pytest.param('x\n1\n"2"3\n', "row 3: malformed CSV: ',' expected after '\"'", id="after-quote"),
            pytest.param('x\n1\n2\n"3\n', "row 4: malformed CSV: unexpected end of data", id="open-at-end"),
            pytest.param('x\n1\n"2\n3\n4\n', "row 3: malformed CSV: unexpected end of data", id="open-early"),
            pytest.param('x\n"1\n"\n"2"3\n', "row 4: malformed CSV: ',' expected after '\"'", id="after-multiline"),
        ],
    )
    def test_malformed_quoting_names_the_record_start(self, text, expected):
        """A quote left open runs to the end of the input and text after a
        closing quote is not a field: both are malformed, reported at the
        line the record starts on, never loaded as a value."""
        with pytest.raises(DataError) as info:
            load_population(io.StringIO(text))
        assert str(info.value) == expected

    def test_empty_input(self):
        with pytest.raises(EmptyPopulationError):
            load_population(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(EmptyPopulationError):
            load_population(io.StringIO("x\n"))

    def test_blank_lines_skipped(self):
        pop = load_population(io.StringIO("x\n1\n\n2\n"))
        assert pop.N == 2

    def test_memory_holds_values_not_row_objects(self):
        """100k rows over 50 distinct x: the loaded groups hold one float per
        y and the table K entries, so the traced peak stays near 3 MB; one
        object per row plus a sorted copy of all rows would take over 11 MB."""
        rng = random.Random(50)
        text = "x,y\n" + "".join(
            f"{rng.randrange(50)},{rng.random()!r}\n" for _ in range(100_000)
        )
        source = io.StringIO(text)
        tracemalloc.start()
        try:
            ft = build_frequency_table(load_population(source, "x", "y"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert (ft.K, ft.N) == (50, 100_000)


def loader_outcome(load, text, x_column, y_column, delimiter):
    """Groups as (key hex, [y hex]) in key order, so the sign of zero and
    the order of first appearance count; or the error's type and message."""
    try:
        pop = load(io.StringIO(text), x_column, y_column, delimiter)
    except (DataError, InputSchemaError, EmptyPopulationError) as exc:
        return type(exc).__name__, str(exc)
    return [(x.hex(), [y.hex() for y in ys]) for x, ys in pop.groups.items()]


def quoted(text, delimiter):
    if any(c in text for c in (delimiter, "\n", '"')):
        return '"' + text.replace('"', '""') + '"'
    return text


def random_loader_input(rng):
    """One input of the differential corpus: a header, then 1-12 records
    mixing clean and padded numbers, rejected cells, blank and
    delimiter-only rows, short and long rows, oversized fields, and quoted
    fields that hold the delimiter or span lines (an id column, or x
    itself)."""
    delimiter = rng.choice((",", ",", "\t"))
    newline = rng.choice(("\n", "\n", "\r\n"))
    columns = ["x", "y", "id"] + (["w"] if rng.random() < 0.3 else [])
    rng.shuffle(columns)
    if rng.random() < 0.15:
        columns.remove("y")
    y_column = rng.choice((None, "y", "y") if "y" in columns else (None, None, "y"))

    def number():
        value = rng.choice(REJECTS) if rng.random() < 0.03 else rng.choice(NUMBERS)
        return rng.choice(PADS) + value + rng.choice(PADS)

    def cell(name):
        if name in ("x", "y"):
            if rng.random() < 0.05:  # x or y as a quoted multi-line field
                return quoted(number() + "\n", delimiter)
            return quoted(number(), delimiter)
        if rng.random() < 0.2:
            return quoted(rng.choice(("a,b", "a\tb", "two\nlines", 'say "hi"')), delimiter)
        return str(rng.randrange(100))

    header = delimiter.join(rng.choice(PADS[:3]) + c for c in columns)
    lines = [header]
    for _ in range(rng.randint(1, 12)):
        form = rng.random()
        if form < 0.01:  # a field over csv.field_size_limit() is malformed CSV
            lines.append(delimiter.join(["1"] * (len(columns) - 1) + ["9" * 131_073]))
        elif form < 0.05:
            lines.append("")
        elif form < 0.10:
            lines.append(delimiter * rng.randint(1, len(columns)))
        elif form < 0.13:
            lines.append(delimiter.join(rng.choice(PADS) for _ in columns))
        else:
            cells = [cell(c) for c in columns]
            if rng.random() < 0.05:
                del cells[rng.randrange(len(cells)) :]
            if rng.random() < 0.1:
                cells.append(cell("id"))
            lines.append(delimiter.join(cells))
    text = newline.join(lines) + rng.choice((newline, newline, ""))
    return text, y_column, delimiter


class TestOneStepParse:
    def test_matches_the_checked_loader(self):
        """600 seeded inputs: the one-step loader returns the same groups
        (key order, key and y hex) or raises the same error, with the same
        message and row, as the loader that checks every cell."""
        rng = random.Random(8)
        kinds = {"ok": 0}
        for _ in range(600):
            text, y_column, delimiter = random_loader_input(rng)
            expected = loader_outcome(reference_load_population, text, "x", y_column, delimiter)
            got = loader_outcome(load_population, text, "x", y_column, delimiter)
            assert got == expected, (text, y_column, delimiter)
            if isinstance(got, list):
                kinds["ok"] += 1
            else:
                kind = got[1].split(": ")[1].split(" ")[0] if got[1].startswith("row") else got[0]
                kinds[kind] = kinds.get(kind, 0) + 1
        # the corpus reaches every outcome the checked path can produce
        assert kinds["ok"] >= 200
        for kind in ("cannot", "non-finite", "missing", "malformed", "InputSchemaError"):
            assert kinds.get(kind, 0) >= 3, kinds

    def test_clean_rows_skip_the_per_cell_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a clean row reached the per-cell checks")

        text = "id,x,y\n1, 2.5 ,10\n2,1,\u00a0-0.5\n3,2.5,1_000\n"
        expected = reference_load_population(io.StringIO(text), "x", "y").groups
        monkeypatch.setattr("stratopt.population._parse_cell", refuse)
        pop = load_population(io.StringIO(text), "x", "y")
        assert pop.groups == {2.5: [10.0, 1000.0], 1.0: [-0.5]} == expected

    def test_a_bad_row_still_reaches_the_per_cell_checks(self):
        with pytest.raises(DataError, match="^row 3: cannot parse x='bogus' as a number$"):
            load_population(io.StringIO("x,y\n1,2\nbogus,3\n"), "x", "y")


def random_cached_text_input(rng):
    """One input of the cached-text corpus: 100-400 records whose x texts
    come from a pool of 2-6 padded NUMBERS (half the pools add both signed
    zeros), so most texts repeat and are cached early. Named y draws from
    a pool too. Blank rows are sprinkled in. In about half the inputs one
    row fails: with named y, a rejected or missing y beside an x text seen
    three times already, so cached; with y = x, a rejected x."""
    named = rng.random() < 0.5
    pool = [rng.choice(PADS) + rng.choice(NUMBERS) + rng.choice(PADS) for _ in range(rng.randint(2, 6))]
    if rng.random() < 0.5:
        pool += [rng.choice(("-0.0", " -0.0", "-0")), rng.choice(("0.0", "0", "0.0 "))]
    y_pool = [rng.choice(PADS) + rng.choice(NUMBERS) for _ in range(4)]
    records = rng.randint(100, 400)
    bad_at = rng.randrange(records) if rng.random() < 0.5 else None
    lines = ["x,y" if named else "x"]
    seen: dict[str, int] = {}
    for i in range(records):
        text = rng.choice(pool)
        if rng.random() < 0.02:
            lines.append("")
            continue
        if bad_at is not None and i >= bad_at and seen.get(text, 0) >= 3:
            if named:
                lines.append(text + "," + rng.choice(REJECTS) if rng.random() < 0.7 else text)
            else:
                lines.append(rng.choice(REJECTS[:5]))
            bad_at = None
        else:
            lines.append(text + "," + rng.choice(y_pool) if named else text)
        seen[text] = seen.get(text, 0) + 1
    return "\n".join(lines) + "\n", "y" if named else None


class TestCachedTexts:
    def test_matches_the_checked_loader_on_repeated_texts(self):
        """300 seeded inputs whose x texts repeat: the loader that caches
        repeated texts returns the same groups (key order, key and y hex)
        or raises the same error, naming the same row, as the loader that
        checks every cell."""
        rng = random.Random(19)
        outcomes = {"ok": 0, "error": 0}
        for _ in range(300):
            text, y_column = random_cached_text_input(rng)
            expected = loader_outcome(reference_load_population, text, "x", y_column, ",")
            got = loader_outcome(load_population, text, "x", y_column, ",")
            assert got == expected, (text, y_column)
            outcomes["ok" if isinstance(got, list) else "error"] += 1
        assert outcomes["ok"] >= 100 and outcomes["error"] >= 50, outcomes

    def test_each_repeated_text_is_parsed_at_most_twice(self, monkeypatch):
        """1,000 rows over 3 x texts with y = x: the first two rows of each
        text parse it, every later row reuses it. (A zero text of the sign
        its group's key lacks is parsed on every row: see the next test.)"""
        parsed: dict[str, int] = {}

        def counting_float(text):
            parsed[text] = parsed.get(text, 0) + 1
            return float(text)

        rng = random.Random(3)
        rows = [rng.choice(("2.5", "-0.0", "1e3")) for _ in range(1000)]
        expected = loader_outcome(reference_load_population, "x\n" + "\n".join(rows), "x", None, ",")
        monkeypatch.setattr(population, "float", counting_float, raising=False)
        got = loader_outcome(load_population, "x\n" + "\n".join(rows), "x", None, ",")
        assert got == expected
        assert set(parsed) == {"2.5", "-0.0", "1e3"}
        assert max(parsed.values()) <= 2, parsed

    @pytest.mark.parametrize("y_column", [None, "y"])
    def test_signed_zero_texts_keep_their_own_sign(self, y_column):
        cells = ["-0.0", "0", "0.0", "-0", "0", "-0.0", "0.0", "-0"] * 3
        text = "x,y\n" + "".join(f"{cell},{i}\n" for i, cell in enumerate(cells))
        pop = load_population(io.StringIO(text), "x", y_column)
        (key, ys), = pop.groups.items()
        assert key.hex() == "-0x0.0p+0"
        if y_column is None:
            assert [y.hex() for y in ys] == [float(cell).hex() for cell in cells]
        else:
            assert ys == [float(i) for i in range(len(cells))]


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "text,x_column,y_column",
        [
            pytest.param('"x",y\n1,2\n3,4\n1,5\n', "x", "y", id="quoted-x"),
            pytest.param('"a,b",x\n1,2\n3,4\n', "x", None, id="quoted-delimiter"),
            pytest.param("x,y\n1,2\n", "x", "y", id="plain"),
        ],
    )
    def test_loads_as_without_the_mark(self, text, x_column, y_column):
        expected = loader_outcome(load_population, text, x_column, y_column, ",")
        assert isinstance(expected, list)
        assert loader_outcome(load_population, "\ufeff" + text, x_column, y_column, ",") == expected

    def test_row_numbers_are_unchanged(self):
        with pytest.raises(DataError, match="^row 3: cannot parse x='bogus' as a number$"):
            load_population(io.StringIO('\ufeff"x"\n1\nbogus\n'))

    def test_mark_alone_is_an_empty_input(self):
        with pytest.raises(EmptyPopulationError, match="^input has no header row$"):
            load_population(io.StringIO("\ufeff"))


class TestFrequencyTable:
    """A table stores its fields as tuples however it is made, so that no
    table changes once made."""

    LISTS = ([2.0, 4.0], [1, 2], [2.0, 8.0], [4.0, 32.0])

    @pytest.mark.parametrize("route", ["built", "_replace", "_make", "pickle"])
    def test_fields_are_tuples(self, route):
        built = FrequencyTable(*self.LISTS)
        ft = {
            "built": lambda: built,
            "_replace": lambda: built._replace(q=[1.0, 3.0], count=[2, 2]),
            "_make": lambda: FrequencyTable._make(self.LISTS),
            "pickle": lambda: pickle.loads(pickle.dumps(built)),
        }[route]()
        assert type(ft) is FrequencyTable
        assert all(type(field) is tuple for field in ft), ft
        if route == "_replace":
            assert ft[:2] == ((1.0, 3.0), (2, 2))
        else:
            assert ft == tuple(map(tuple, self.LISTS))

    def test_tuple_fields_pass_through(self):
        """A table of tuples, as build_frequency_table makes, keeps the very
        tuples it was handed."""
        fields = tuple(map(tuple, self.LISTS))
        ft = FrequencyTable(*fields)
        assert all(map(lambda kept, given: kept is given, ft, fields))

    @pytest.mark.parametrize("seed", range(5))
    def test_tabulated_groups_are_never_refused(self, seed):
        """No group a population tabulates into falls below the rounding
        allowance of the check that y_sumsq >= y_sum^2 / count, though the
        exact test count * y_sumsq >= y_sum^2 refuses some of these groups.
        They are near-constant at scales 1e-300 to 1e150, subnormal, near
        1e154 or identical values repeated up to 1000 times."""
        rng = random.Random(seed)
        groups = {}
        for _ in range(400):
            base = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300.0, 150.0)
            size = rng.choice((2, 3, 5, 8, 50))
            spread = 2.0 ** -rng.randint(30, 60)
            groups[len(groups)] = [base * (1.0 + rng.uniform(-spread, spread)) for _ in range(size)]
        for _ in range(100):
            groups[len(groups)] = [rng.randint(-50, 50) * 5e-324 for _ in range(rng.randint(1, 10))]
        for _ in range(100):
            size = rng.randint(1, 2)
            groups[len(groups)] = [rng.choice((-9e153, 9e153)) * rng.uniform(0.5, 1.0) for _ in range(size)]
        for _ in range(50):
            value = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-160.0, 150.0)
            groups[len(groups)] = [value] * rng.randint(1, 1000)
        ft = build_frequency_table(Population({float(x): ys for x, ys in groups.items()}))
        assert ft.K == len(groups)
        exact = [c * y2 >= y * y for c, y, y2 in zip(ft.count, ft.y_sum, ft.y_sumsq)]
        assert not all(exact[:400])


class TestBuildFrequencyTable:
    def test_sorts_ascending_by_x(self):
        ft = build_frequency_table(load_population(io.StringIO("x\n3\n1\n2\n")))
        assert ft.q == (1.0, 2.0, 3.0)

    def test_worked_example_aggregates(self):
        """Multiset (2,4,4,8,10,10,10,15,15) with y = x.

        Group sums by hand: y_sum = (2, 8, 8, 30, 30) and
        y_sumsq = (4, 32, 64, 300, 450).
        """
        pop = load_population(io.StringIO(DESK_CSV))
        ft = build_frequency_table(pop)
        assert ft.q == (2.0, 4.0, 8.0, 10.0, 15.0)
        assert ft.count == (1, 2, 1, 3, 2)
        assert ft.y_sum == (2.0, 8.0, 8.0, 30.0, 30.0)
        assert ft.y_sumsq == (4.0, 32.0, 64.0, 300.0, 450.0)
        assert ft.K == 5
        assert ft.N == 9

    def test_all_values_equal(self):
        ft = table_from_pairs([(7.0, 7.0)] * 4)
        assert ft.q == (7.0,)
        assert ft.count == (4,)
        assert ft.y_sum == (28.0,)
        assert ft.K == 1

    def test_grouping_is_exact_not_epsilon(self):
        near = math.nextafter(1.0, 2.0)
        ft = table_from_pairs([(1.0, 1.0), (near, 1.0)])
        assert ft.K == 2
        assert ft.count == (1, 1)

    def test_y_sum_equals_value_times_count_when_y_is_x(self):
        ft = table_from_pairs([(x, x) for x in (3, 3, 3, 9, 9)])
        assert ft.y_sum == (9.0, 18.0)
        assert all(s == q * c for q, c, s in zip(ft.q, ft.count, ft.y_sum))

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_permutation_invariance(self, seed):
        rng = random.Random(seed)
        xs = [rng.choice([1.5, 2.0, 2.5, 7.0, 11.25]) for _ in range(30)]
        pairs = [(x, rng.random()) for x in xs]
        ft = table_from_pairs(pairs)

        expanded = [q for q, c in zip(ft.q, ft.count) for _ in range(c)]
        assert expanded == sorted(xs)
        assert ft.N == len(xs)
        assert list(ft.q) == sorted(set(xs))

        rng.shuffle(pairs)
        assert table_from_pairs(pairs) == ft

    @pytest.mark.parametrize("first,second", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_signed_zeros_share_one_group_keyed_by_the_first(self, first, second):
        text = f"x\n{first}\n{second}\n1\n2\n"
        ft = build_frequency_table(load_population(io.StringIO(text)))
        assert ft.q == (0.0, 1.0, 2.0)
        assert ft.count == (2, 1, 1)
        assert math.copysign(1.0, ft.q[0]) == math.copysign(1.0, float(first))

    def test_empty_population_rejected(self):
        with pytest.raises(EmptyPopulationError):
            build_frequency_table(Population({}))
