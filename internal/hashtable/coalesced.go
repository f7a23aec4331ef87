package hashtable

import "nulpa/internal/simt"

// Coalesced chaining (the appendix figure's comparison point): a hybrid of
// separate chaining and open addressing. Every slot belongs to the flat
// arena, but occupied slots form chains through a third buffer (Arena.Next)
// of window-relative "next" slots, so a colliding key walks the chain of its
// home bucket instead of re-probing, and claims any free slot (found by
// linear scan) when the chain ends. The paper found this did not outperform
// open addressing with quadratic-double probing.

// noNext marks the end of a chain.
const noNext = ^uint32(0)

// chainPlain is Accumulate's plain (single-writer) coalesced-chaining path.
func (t Table) chainPlain(k uint32, v float64) bool {
	st := t.a.Stats
	s := int64(k % t.p1)
	for hops := 0; hops <= int(t.p1); hops++ {
		idx := t.base + s
		if st != nil {
			st.Probes.Add(1)
			if hops > 0 {
				st.Collisions.Add(1)
			}
		}
		cur := t.a.Keys[idx]
		if cur == EmptyKey {
			t.a.Keys[idx] = k
			t.addValue(idx, v)
			return true
		}
		if cur == k {
			t.addValue(idx, v)
			return true
		}
		next := t.a.Next[idx]
		if next != noNext {
			s = int64(next)
			continue
		}
		// Chain ended: claim a free slot by linear scan and link it.
		free, ok := t.findFreePlain(s)
		if !ok {
			return t.fail()
		}
		t.a.Keys[t.base+free] = k
		t.addValue(t.base+free, v)
		t.a.Next[idx] = uint32(free)
		return true
	}
	return t.fail()
}

func (t Table) findFreePlain(from int64) (int64, bool) {
	for off := int64(1); off <= int64(t.p1); off++ {
		s := from + off
		if s >= int64(t.p1) {
			s -= int64(t.p1)
		}
		if t.a.Keys[t.base+s] == EmptyKey {
			return s, true
		}
	}
	return 0, false
}

// chainShared is Accumulate's shared (atomic, many-writer) coalesced-chaining
// path.
func (t Table) chainShared(k uint32, v float64) bool {
	st := t.a.Stats
	s := int64(k % t.p1)
	// Bounded by slots² in the worst contention case; in practice a few hops.
	for hops := 0; hops <= 2*int(t.p1)+4; hops++ {
		idx := t.base + s
		if st != nil {
			st.Probes.Add(1)
			if hops > 0 {
				st.Collisions.Add(1)
			}
		}
		old := simt.AtomicCASUint32(t.a.Keys, int(idx), EmptyKey, k)
		if old == EmptyKey || old == k {
			t.atomicAddValue(idx, v)
			return true
		}
		// Occupied by another key: follow or extend the chain.
		next := simt.AtomicLoadUint32(t.a.Next, int(idx))
		if next != noNext {
			s = int64(next)
			continue
		}
		free, ok := t.claimFreeShared(s, k)
		if !ok {
			return t.fail()
		}
		// Link the claimed slot at the chain's tail. If another writer
		// extended the chain first, advance to its new tail and retry; if
		// that writer inserted k itself, merge there and release our claim.
		for {
			oldNext := simt.AtomicCASUint32(t.a.Next, int(idx), noNext, uint32(free))
			if oldNext == noNext {
				t.atomicAddValue(t.base+free, v)
				return true
			}
			idx = t.base + int64(oldNext)
			if k2 := simt.AtomicLoadUint32(t.a.Keys, int(idx)); k2 == k {
				t.atomicAddValue(idx, v)
				simt.AtomicStoreUint32(t.a.Keys, int(t.base+free), EmptyKey)
				return true
			}
		}
	}
	return t.fail()
}

// claimFreeShared linearly scans for an empty slot and claims it with k.
func (t Table) claimFreeShared(from int64, k uint32) (int64, bool) {
	for off := int64(1); off <= int64(t.p1); off++ {
		s := from + off
		if s >= int64(t.p1) {
			s -= int64(t.p1)
		}
		if simt.AtomicCASUint32(t.a.Keys, int(t.base+s), EmptyKey, k) == EmptyKey {
			return s, true
		}
	}
	return 0, false
}
