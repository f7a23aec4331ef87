package hashtable

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestStatsResetZeroesEveryCounter walks Stats with reflection so a counter
// added later cannot be forgotten by Reset: every atomic.Int64 field is set
// to a distinct non-zero value, then Reset must zero all of them.
func TestStatsResetZeroesEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	atomicInt64 := reflect.TypeOf(atomic.Int64{})
	n := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != atomicInt64 {
			t.Fatalf("Stats.%s has type %v; extend this test for non-atomic.Int64 counters", f.Name, f.Type)
		}
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
		n++
	}
	if n == 0 {
		t.Fatal("Stats has no counter fields")
	}
	s.Reset()
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != 0 {
			t.Errorf("Reset left Stats.%s = %d", v.Type().Field(i).Name, got)
		}
	}
}

// TestStatsSnapshotMirrorsStats enforces the documented invariant that
// StatsSnapshot's fields mirror Stats one-to-one, so a new counter cannot be
// silently dropped from snapshots (and hence from per-iteration telemetry).
func TestStatsSnapshotMirrorsStats(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	sn := reflect.TypeOf(StatsSnapshot{})
	if st.NumField() != sn.NumField() {
		t.Fatalf("Stats has %d fields, StatsSnapshot has %d", st.NumField(), sn.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Name != sn.Field(i).Name {
			t.Errorf("field %d: Stats.%s vs StatsSnapshot.%s", i, st.Field(i).Name, sn.Field(i).Name)
		}
		if sn.Field(i).Type.Kind() != reflect.Int64 {
			t.Errorf("StatsSnapshot.%s is %v, want int64", sn.Field(i).Name, sn.Field(i).Type)
		}
	}
}

// TestSnapshotCopiesEveryCounter cross-checks Snapshot against reflection:
// each counter set to a distinct value must appear in the matching snapshot
// field.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(100 + i))
	}
	snap := reflect.ValueOf(s.Snapshot())
	for i := 0; i < snap.NumField(); i++ {
		if got := snap.Field(i).Int(); got != int64(100+i) {
			t.Errorf("Snapshot.%s = %d, want %d", snap.Type().Field(i).Name, got, 100+i)
		}
	}
}

func TestSnapshotNilStats(t *testing.T) {
	var s *Stats
	if got := s.Snapshot(); got != (StatsSnapshot{}) {
		t.Errorf("nil Snapshot = %+v, want zero", got)
	}
}

// TestSnapshotDeltas exercises the per-iteration delta pattern the telemetry
// layer uses: snapshot, do work, snapshot, subtract.
func TestSnapshotDeltas(t *testing.T) {
	s := &Stats{}
	s.Accumulates.Store(10)
	s.Probes.Store(20)
	base := s.Snapshot()
	s.Accumulates.Add(5)
	s.Probes.Add(7)
	s.Collisions.Add(3)
	d := s.Snapshot().Sub(base)
	want := StatsSnapshot{Accumulates: 5, Probes: 7, Collisions: 3}
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
}

// TestMetricsRideStatsGate pins the metrics bridge to the Stats gate: probe
// histogram and counters advance only when an Arena carries Stats, so the
// stats-disabled hot path stays metric-free too.
func TestMetricsRideStatsGate(t *testing.T) {
	countBefore := func() int64 { return mProbeLen.Count() }

	off := NewArena(Float32, QuadraticDouble, 64)
	tb := off.TableFor(0, 8)
	tb.Accumulate(1, 1, false)
	c0 := countBefore()

	on := NewArena(Float32, QuadraticDouble, 64)
	on.Stats = &Stats{}
	tb = on.TableFor(0, 8)
	if !tb.Accumulate(1, 1, false) {
		t.Fatal("accumulate failed")
	}
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced by %d with Stats attached, want 1", got-c0)
	}

	off2 := NewArena(Float32, QuadraticDouble, 64)
	tb = off2.TableFor(0, 8)
	tb.Accumulate(2, 1, false)
	if got := countBefore(); got != c0+1 {
		t.Fatalf("probe histogram advanced without Stats (count %d, want %d)", got, c0+1)
	}
}
