"""Unit tests for the fingerprint-matrix containers."""

import sys

import numpy as np
import pytest

from repro.core.fingerprint import FingerprintDatabase, FingerprintMatrix


@pytest.fixture()
def matrix():
    rng = np.random.default_rng(0)
    return FingerprintMatrix(
        values=rng.normal(-50, 3, size=(5, 20)),
        empty_rss=rng.normal(-45, 2, size=5),
        day=0.0,
        source="survey",
    )


class TestFingerprintMatrix:
    def test_shape_properties(self, matrix):
        assert matrix.link_count == 5
        assert matrix.cell_count == 20
        assert matrix.shape == (5, 20)

    def test_dips_sign_convention(self):
        fp = FingerprintMatrix(
            values=np.array([[-50.0, -42.0]]),
            empty_rss=np.array([-45.0]),
        )
        # Lower RSS than empty room = positive dip (attenuation).
        np.testing.assert_allclose(fp.dips(), [[5.0, -3.0]])

    def test_column_access(self, matrix):
        np.testing.assert_array_equal(matrix.column(3), matrix.values[:, 3])
        with pytest.raises(IndexError):
            matrix.column(20)

    def test_columns_subset(self, matrix):
        subset = matrix.columns(np.array([1, 5, 7]))
        assert subset.shape == (5, 3)
        np.testing.assert_array_equal(subset[:, 1], matrix.values[:, 5])

    def test_effective_rank_of_low_rank_data(self):
        rng = np.random.default_rng(1)
        low = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 30))
        fp = FingerprintMatrix(values=low, empty_rss=np.zeros(6))
        assert fp.effective_rank(0.999) <= 2

    def test_with_values_preserves_context(self, matrix):
        updated = matrix.with_values(matrix.values + 1.0, source="reconstruction")
        assert updated.source == "reconstruction"
        assert updated.day == matrix.day
        np.testing.assert_array_equal(updated.empty_rss, matrix.empty_rss)

    def test_with_values_new_day(self, matrix):
        updated = matrix.with_values(matrix.values, source="reconstruction", day=9.0)
        assert updated.day == 9.0

    def test_with_empty_rss(self, matrix):
        fresh = matrix.with_empty_rss(matrix.empty_rss + 2.0)
        np.testing.assert_allclose(fresh.empty_rss, matrix.empty_rss + 2.0)
        np.testing.assert_array_equal(fresh.values, matrix.values)

    def test_empty_rss_shape_validated(self):
        with pytest.raises(ValueError, match="empty_rss"):
            FingerprintMatrix(values=np.zeros((3, 4)), empty_rss=np.zeros(4))

    def test_non_finite_rejected(self):
        values = np.zeros((2, 2))
        values[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FingerprintMatrix(values=values, empty_rss=np.zeros(2))

    def test_immutability(self, matrix):
        with pytest.raises(AttributeError):
            matrix.day = 5.0


class TestFingerprintDatabase:
    def make(self, day, source="survey"):
        return FingerprintMatrix(
            values=np.full((2, 3), -50.0 - day),
            empty_rss=np.zeros(2),
            day=day,
            source=source,
        )

    def test_empty_lookups_raise(self):
        db = FingerprintDatabase()
        with pytest.raises(LookupError, match="empty"):
            db.at(0.0)
        with pytest.raises(LookupError):
            db.latest()
        with pytest.raises(LookupError):
            db.initial()

    def test_at_picks_most_recent_epoch(self):
        db = FingerprintDatabase()
        db.add(self.make(0.0))
        db.add(self.make(10.0))
        db.add(self.make(20.0))
        assert db.at(15.0).day == 10.0
        assert db.at(10.0).day == 10.0
        assert db.at(99.0).day == 20.0

    def test_at_before_first_epoch_raises(self):
        db = FingerprintDatabase()
        db.add(self.make(5.0))
        with pytest.raises(LookupError, match="earliest"):
            db.at(4.0)
        # The boundary day itself resolves.
        assert db.at(5.0).day == 5.0

    def test_version_bumps_on_every_add(self):
        db = FingerprintDatabase()
        assert db.version == 0
        db.add(self.make(0.0))
        assert db.version == 1
        db.add(self.make(10.0))
        assert db.version == 2
        # Lookups never change the version (it tracks mutations only).
        db.at(5.0)
        db.latest()
        assert db.version == 2

    def test_out_of_order_add_changes_resolution_and_version(self):
        """Why caches key on the version: a new epoch can change which
        fingerprint serves an *old* query day."""
        db = FingerprintDatabase()
        db.add(self.make(0.0))
        assert db.at(40.0).day == 0.0
        before = db.version
        db.add(self.make(30.0))
        assert db.version == before + 1
        assert db.at(40.0).day == 30.0

    def test_out_of_order_insertion(self):
        db = FingerprintDatabase()
        db.add(self.make(20.0))
        db.add(self.make(0.0))
        db.add(self.make(10.0))
        assert db.days == [0.0, 10.0, 20.0]
        assert db.initial().day == 0.0
        assert db.latest().day == 20.0

    @pytest.mark.parametrize(
        "held, added, probes",
        [
            ((0.0, 10.0), 11.0, (12.0, 10.5)),  # appended after the last
            ((0.0, 20.0), 10.0, (15.0, 25.0)),  # inserted between two
        ],
    )
    def test_a_read_during_add_sees_the_old_or_the_new_epochs(
        self, held, added, probes
    ):
        """An update thread adds epochs while query threads read: a read
        that lands between any two lines of ``add`` must resolve against
        the whole old database or the whole new one."""
        db = FingerprintDatabase()
        for day in held:
            db.add(self.make(day))
        before = {probe: db.at(probe) for probe in probes}
        seen = []

        def read_between_lines(frame, event, arg):
            if event == "line":
                seen.append({probe: db.at(probe) for probe in probes})
            return read_between_lines

        def on_call(frame, event, arg):
            if frame.f_code is FingerprintDatabase.add.__code__:
                return read_between_lines
            return None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            db.add(self.make(added))
        finally:
            sys.settrace(previous)
        after = {probe: db.at(probe) for probe in probes}
        assert seen  # the hook ran inside add
        for reads in seen:
            for probe, epoch in reads.items():
                assert epoch is before[probe] or epoch is after[probe]

    def test_shape_consistency_enforced(self):
        db = FingerprintDatabase()
        db.add(self.make(0.0))
        wrong = FingerprintMatrix(
            values=np.zeros((3, 3)), empty_rss=np.zeros(3), day=1.0
        )
        with pytest.raises(ValueError, match="shape"):
            db.add(wrong)

    def test_staleness(self):
        db = FingerprintDatabase()
        db.add(self.make(0.0))
        db.add(self.make(30.0))
        assert db.staleness(45.0) == pytest.approx(15.0)
        assert db.staleness(29.0) == pytest.approx(29.0)

    def test_epoch_count_and_listing(self):
        db = FingerprintDatabase()
        for day in (0.0, 5.0):
            db.add(self.make(day))
        assert db.epoch_count == 2
        assert [e.day for e in db.epochs()] == [0.0, 5.0]

    def test_summary(self):
        db = FingerprintDatabase()
        assert db.summary() == {"epochs": 0}
        db.add(self.make(0.0))
        summary = db.summary()
        assert summary["epochs"] == 1.0
        assert summary["links"] == 2.0
        assert summary["cells"] == 3.0
