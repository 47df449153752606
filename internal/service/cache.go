package service

import "container/list"

// resultCache is a bounded LRU over completed job results, keyed by job ID
// (the content address derived from circuit hash + analysis identity, see
// jobID). Values are the exact encoded response bytes, so a hit is served
// byte-identical to the cold run that produced it. Not safe for concurrent
// use — the Manager guards it with its own mutex.
type resultCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is what completion leaves behind once the Job bookkeeping is
// gone: enough to answer status and result queries forever after.
type cacheEntry struct {
	id     string
	info   JobInfo
	result []byte
	// seq is the last event sequence number the job published (events.go):
	// the snapshot replayed to late event subscribers carries it, so a
	// resume cursor stays monotone across completion. Zero for entries
	// loaded from the disk tier — their event history is gone.
	seq int64
	// done is the computing job's done channel, closed once its store
	// write has finished; nil for entries loaded from the disk tier.
	done chan struct{}
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the entry for id, refreshing its recency.
func (c *resultCache) get(id string) (*cacheEntry, bool) {
	el, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// add inserts (or refreshes) an entry, evicting the least recently used
// one beyond capacity.
func (c *resultCache) add(e *cacheEntry) {
	if el, ok := c.items[e.id]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.id] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).id)
	}
}

// len returns the number of cached results.
func (c *resultCache) len() int { return c.ll.Len() }
