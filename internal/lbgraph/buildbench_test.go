package lbgraph

import "testing"

// benchFixed times BuildFixed of p: from scratch (a nil session), or as a
// hit in a primed cache of the bench's own.
func benchFixed(b *testing.B, p Params, cached bool) {
	l, err := NewLinear(p)
	if err != nil {
		b.Fatal(err)
	}
	var sess *CacheSession
	if cached {
		sess = NewCacheSession(NewBuildCache(0))
		if _, err := l.BuildFixedWith(sess); err != nil { // prime
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.BuildFixedWith(sess); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildFixedUncachedT4(b *testing.B) {
	benchFixed(b, Params{T: 4, Alpha: 1, Ell: 5}, false)
}

func BenchmarkBuildFixedCachedT4(b *testing.B) {
	benchFixed(b, Params{T: 4, Alpha: 1, Ell: 5}, true)
}
