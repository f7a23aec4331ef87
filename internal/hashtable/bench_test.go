package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks isolating the hashtable from the LPA loop: the probing
// strategies of Figure 3 and the value widths of Figure 5 under a realistic
// key distribution (a skewed label multiset over a degree-256 vertex).

func benchKeys(deg int) []uint32 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, deg)
	for i := range keys {
		// Zipf-ish label distribution: communities already formed.
		keys[i] = uint32(rng.Intn(1+i/4) * 977)
	}
	return keys
}

func BenchmarkAccumulateProbing(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, pr := range allProbings {
		b.Run(pr.String(), func(b *testing.B) {
			a := NewArena(Float32, pr, 2*deg)
			tb := a.TableFor(0, deg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, false)
				}
			}
		})
	}
}

func BenchmarkAccumulateShared(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, shared := range []bool{false, true} {
		b.Run(fmt.Sprintf("shared=%v", shared), func(b *testing.B) {
			a := NewArena(Float32, QuadraticDouble, 2*deg)
			tb := a.TableFor(0, deg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, shared)
				}
			}
		})
	}
}

func BenchmarkAccumulateValueKind(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, kind := range allKinds {
		b.Run(kind.String(), func(b *testing.B) {
			a := NewArena(kind, QuadraticDouble, 2*deg)
			tb := a.TableFor(0, deg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, false)
				}
			}
		})
	}
}

func BenchmarkMaxKey(b *testing.B) {
	const deg = 256
	a := NewArena(Float32, QuadraticDouble, 2*deg)
	tb := a.TableFor(0, deg)
	for _, k := range benchKeys(deg) {
		tb.Accumulate(k, 1, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tb.MaxKey(); !ok {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkCoalescedAccumulate(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	a := NewArena(Float32, Coalesced, 2*deg)
	tb := a.TableFor(0, deg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Clear(0, 1)
		for _, k := range keys {
			tb.Accumulate(k, 1, false)
		}
	}
}
