package cache

import "container/list"

// lru is a recency-ordered map from keys to values, bounded by the summed
// size of its entries. It is the one LRU under the solve cache: the
// private cache and the shared tier size each solve 1, and the disk tier
// sizes each file in bytes. It is not safe for concurrent use; each owner
// guards it with its own lock.
type lru[V any] struct {
	bound int64 // on the summed size
	size  int64
	index map[Key]*list.Element
	order *list.List // front = most recently used; values are *lruItem[V]
}

type lruItem[V any] struct {
	key  Key
	val  V
	size int64
}

func newLRU[V any](bound int64) *lru[V] {
	return &lru[V]{bound: bound, index: make(map[Key]*list.Element), order: list.New()}
}

// get returns key's value and makes it the most recently used entry.
func (l *lru[V]) get(key Key) (V, bool) {
	el, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put makes key the most recently used entry, of the given size. A key
// already present keeps its stored value and takes the new size. put then
// evicts from the back until the sizes fit the bound, never key itself,
// and returns the evicted keys.
func (l *lru[V]) put(key Key, val V, size int64) (evicted []Key) {
	if el, ok := l.index[key]; ok {
		it := el.Value.(*lruItem[V])
		l.size += size - it.size
		it.size = size
		l.order.MoveToFront(el)
	} else {
		l.index[key] = l.order.PushFront(&lruItem[V]{key: key, val: val, size: size})
		l.size += size
	}
	for l.size > l.bound && l.order.Len() > 1 {
		it := l.order.Remove(l.order.Back()).(*lruItem[V])
		delete(l.index, it.key)
		l.size -= it.size
		evicted = append(evicted, it.key)
	}
	return evicted
}

// remove drops key, giving its size back.
func (l *lru[V]) remove(key Key) {
	if el, ok := l.index[key]; ok {
		l.size -= l.order.Remove(el).(*lruItem[V]).size
		delete(l.index, key)
	}
}

func (l *lru[V]) len() int { return l.order.Len() }
