package cache

import "testing"

// TestLRU runs put/get/remove scripts against the one LRU under the
// cache's tiers and checks the order, values and summed size they leave.
func TestLRU(t *testing.T) {
	type op struct {
		kind    byte // 'p' put, 'g' get, 'r' remove
		key     byte
		val     string
		size    int64
		evicted []byte // keys a put must evict, least recent first
	}
	for _, tc := range []struct {
		name  string
		bound int64
		ops   []op
		order []byte // keys afterwards, most recent first
		vals  string // their values, one byte each
		size  int64
	}{
		{
			name:  "put on a present key keeps its value and takes the new size",
			bound: 10,
			ops:   []op{{'p', 1, "a", 2, nil}, {'p', 2, "b", 2, nil}, {'p', 1, "x", 5, nil}},
			order: []byte{1, 2}, vals: "ab", size: 7,
		},
		{
			name:  "eviction follows recency",
			bound: 3,
			ops: []op{
				{'p', 1, "a", 1, nil}, {'p', 2, "b", 1, nil}, {'p', 3, "c", 1, nil},
				{'g', 1, "", 0, nil}, // 1 is now more recent than 3 and 2
				{'p', 4, "d", 1, []byte{2}},
				{'p', 5, "e", 2, []byte{3, 1}},
			},
			order: []byte{5, 4}, vals: "ed", size: 3,
		},
		{
			name:  "a lone entry larger than the bound is kept",
			bound: 2,
			ops:   []op{{'p', 1, "a", 1, nil}, {'p', 2, "b", 5, []byte{1}}, {'p', 2, "b", 6, nil}},
			order: []byte{2}, vals: "b", size: 6,
		},
		{
			name:  "remove gives its size back",
			bound: 4,
			ops: []op{
				{'p', 1, "a", 2, nil}, {'p', 2, "b", 2, nil},
				{'r', 1, "", 0, nil}, {'r', 9, "", 0, nil}, // 9 is absent: a no-op
				{'p', 3, "c", 2, nil},
			},
			order: []byte{3, 2}, vals: "cb", size: 4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLRU[string](tc.bound)
			for i, o := range tc.ops {
				switch o.kind {
				case 'p':
					var got []byte
					for _, k := range l.put(Key{o.key}, o.val, o.size) {
						got = append(got, k[0])
					}
					if string(got) != string(o.evicted) {
						t.Fatalf("op %d: put %d evicted %v, want %v", i, o.key, got, o.evicted)
					}
				case 'g':
					if _, ok := l.get(Key{o.key}); !ok {
						t.Fatalf("op %d: get %d missed", i, o.key)
					}
				case 'r':
					l.remove(Key{o.key})
				}
			}
			var order []byte
			var vals string
			for el := l.order.Front(); el != nil; el = el.Next() {
				it := el.Value.(*lruItem[string])
				order = append(order, it.key[0])
				vals += it.val
			}
			if string(order) != string(tc.order) || vals != tc.vals {
				t.Fatalf("order %v values %q, want %v %q", order, vals, tc.order, tc.vals)
			}
			if l.size != tc.size || l.len() != len(tc.order) || len(l.index) != len(tc.order) {
				t.Fatalf("size %d, len %d, index %d; want size %d, len %d", l.size, l.len(), len(l.index), tc.size, len(tc.order))
			}
			if _, ok := l.get(Key{9}); ok {
				t.Fatal("get of an absent key hit")
			}
		})
	}
}
