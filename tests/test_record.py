import copy
import pickle

import pytest

from confcohom import (
    BUILTIN_SPACES,
    CycleType,
    Permutation,
    SetPartition,
    config_series,
    stability_report,
    unordered_betti_constancy,
)


def frozen_values():
    return [
        CycleType(3, (1, 1, 0)),
        Permutation((1, 0, 2)),
        SetPartition(3, ((0, 2), (1,))),
        BUILTIN_SPACES["c"],
        config_series(BUILTIN_SPACES["c"], 2),
    ]


def reports():
    stability = stability_report(BUILTIN_SPACES["c"], 1, 0, (1, 4))
    return [stability, stability.table, unordered_betti_constancy(BUILTIN_SPACES["c"], 1, (1, 4))]


class TestRecords:
    def test_repr_lists_fields_as_keywords(self):
        assert [repr(v) for v in frozen_values()[:4]] == [
            "CycleType(m=3, mult=(1, 1, 0))",
            "Permutation(images=(1, 0, 2))",
            "SetPartition(m=3, blocks=((0, 2), (1,)))",
            "SpaceSpec(name='c', pc=LaurentPoly(T^2), dim=2, i_acyclic=True, "
            "orientable=True, connected=True)",
        ]
        assert repr(reports()[1]).startswith("MultiplicityTable(degree=1, m_values=(1, 2, 3, 4), rows={")

    @pytest.mark.parametrize("value", frozen_values()[:4], ids=lambda v: type(v).__name__)
    def test_frozen_values_hash_their_fields(self, value):
        fields = tuple(getattr(value, name) for name in type(value)._fields)
        assert hash(value) == hash(fields)
        assert value == copy.copy(value) == pickle.loads(pickle.dumps(value))
        assert value != fields

    @pytest.mark.parametrize("value", frozen_values(), ids=lambda v: type(v).__name__)
    def test_frozen_values_refuse_assignment(self, value):
        name = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    def test_trace_series_compares_values_but_is_unhashable(self):
        series = frozen_values()[4]
        assert series == config_series(BUILTIN_SPACES["c"], 2)
        with pytest.raises(TypeError):
            hash(series)

    @pytest.mark.parametrize("report", reports(), ids=lambda v: type(v).__name__)
    def test_reports_are_mutable_and_unhashable(self, report):
        assert report == copy.deepcopy(report)
        report.degree = 99
        assert report.degree == 99
        with pytest.raises(TypeError):
            hash(report)

    @pytest.mark.parametrize("report", reports(), ids=lambda v: type(v).__name__)
    def test_reports_take_every_field_by_keyword(self, report):
        fields = {name: getattr(report, name) for name in type(report)._fields}
        assert type(report)(**fields) == report
        first = type(report)._fields[0]
        with pytest.raises(TypeError, match=f"missing fields \\['{first}'\\]"):
            type(report)(**{k: v for k, v in fields.items() if k != first})
        with pytest.raises(TypeError, match=r"unknown fields \['extra'\]"):
            type(report)(**fields, extra=1)
        with pytest.raises(TypeError):
            type(report)(*fields.values())

    def test_validation_still_runs(self):
        with pytest.raises(ValueError):
            CycleType(2, (1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 0))
