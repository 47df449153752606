// Package store is the persistent artifact store behind the serving
// layer and the CLI (DESIGN.md §11): a disk-backed, content-addressed
// cache with two tiers —
//
//   - results: final report.Analysis documents plus their job metadata,
//     keyed by the serving layer's job identity (canonical circuit hash +
//     result-identity options), and
//   - universes: the exhaustive-analysis intermediate (fault tables and
//     T-set bitsets, see codec.go), keyed by (canonical circuit hash,
//     fault model) only — every option variant over one circuit shares it.
//
// Both tiers hold pure functions of their keys, so the store never
// invalidates: entries are only ever evicted for space, and a hit is
// byte-identical to the recomputation it replaces. Writes are crash-safe
// (write to a temp file in the same directory, fsync, rename); a reader
// therefore only ever sees absent or complete artifacts, and a corrupt or
// torn file is treated as a miss and deleted. Eviction is size-bounded
// LRU across both tiers, with recency persisted best-effort through file
// mtimes so a restarted store evicts in roughly the same order.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// DefaultMaxBytes bounds the store when Options leaves MaxBytes unset.
const DefaultMaxBytes = 1 << 30 // 1 GiB

// Tier names, also the subdirectory names of the on-disk layout.
const (
	ResultTier   = "results"
	UniverseTier = "universes"
)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total size of stored artifacts across both
	// tiers (0 = DefaultMaxBytes). Writing a new artifact evicts
	// least-recently-used ones until the total fits.
	MaxBytes int64
}

// Observer observes store I/O for latency histograms and throughput
// accounting (DESIGN.md §14). Op is called as one tier operation
// ("get"/"put") starts; the returned function is called when it
// completes with the artifact size moved (0 on a miss or failure) and
// whether it hit/succeeded. All timing happens inside the
// implementation (obs.Recorder-side), never in this package — store
// artifacts are pure functions of their keys and the lint contract
// keeps the clock out of here (DESIGN.md §13). Observations must never
// influence what the store returns.
type Observer interface {
	Op(tier, op string) (done func(bytes int, ok bool))
}

// TierCounters is a snapshot of one tier's monitoring counters.
type TierCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Bytes     int64  `json:"bytes"`
	Files     int    `json:"files"`
}

// Counters is a snapshot of the store's monitoring counters.
type Counters struct {
	Results   TierCounters `json:"results"`
	Universes TierCounters `json:"universes"`
	Bytes     int64        `json:"bytes"` // total across tiers
}

// entry is the in-memory index record of one on-disk artifact.
type entry struct {
	tier string
	key  string
	size int64
}

// Store is the disk-backed artifact store. Safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	obs     Observer                 // nil = unobserved
	entries map[string]*list.Element // index key = tier + "/" + key; values *entry
	lru     *list.List               // front = most recently used
	bytes   int64
	ctr     map[string]*TierCounters
}

// Open opens (or initializes) a store rooted at dir, scanning artifacts
// left by previous processes into the eviction index (oldest mtime =
// first evicted).
func Open(dir string, opts Options) (*Store, error) {
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		ctr: map[string]*TierCounters{
			ResultTier:   {},
			UniverseTier: {},
		},
	}
	type scanned struct {
		e     *entry
		mtime time.Time
	}
	var found []scanned
	for _, tier := range []string{ResultTier, UniverseTier} {
		td := filepath.Join(dir, tier)
		if err := os.MkdirAll(td, 0o777); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		des, err := os.ReadDir(td)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, de := range des {
			info, err := de.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			if filepath.Ext(de.Name()) == ".tmp" {
				os.Remove(filepath.Join(td, de.Name())) // torn write from a crash
				continue
			}
			found = append(found, scanned{
				e:     &entry{tier: tier, key: de.Name(), size: info.Size()},
				mtime: info.ModTime(),
			})
		}
	}
	// Newest first: pushing in that order leaves the oldest at the back,
	// where eviction starts.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.After(found[j].mtime) })
	for _, f := range found {
		s.entries[f.e.tier+"/"+f.e.key] = s.lru.PushBack(f.e)
		s.bytes += f.e.size
		c := s.ctr[f.e.tier]
		c.Bytes += f.e.size
		c.Files++
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

// Close releases the store. Writes are synced at write time, so Close has
// nothing to flush; it exists so owners express lifecycle explicitly.
func (s *Store) Close() error { return nil }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetObserver installs (or, with nil, removes) the store's I/O observer.
// The serving layer wires its latency histograms in here; a store used
// bare (the CLI) stays unobserved.
func (s *Store) SetObserver(o Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// observe opens one observation; the returned function is never nil.
func (s *Store) observe(tier, op string) func(bytes int, ok bool) {
	s.mu.Lock()
	o := s.obs
	s.mu.Unlock()
	if o == nil {
		return func(int, bool) {}
	}
	return o.Op(tier, op)
}

// put writes one artifact crash-safely and evicts for space.
func (s *Store) put(tier, key string, data []byte) (err error) {
	done := s.observe(tier, "put")
	defer func() { done(len(data), err == nil) }()
	path := s.path(tier, key)
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr[tier]
	c.Puts++
	id := tier + "/" + key
	if el, ok := s.entries[id]; ok { // overwrite: same key, maybe new size
		e := el.Value.(*entry)
		s.bytes -= e.size
		c.Bytes -= e.size
		e.size = int64(len(data))
		s.lru.MoveToFront(el)
	} else {
		s.entries[id] = s.lru.PushFront(&entry{tier: tier, key: key, size: int64(len(data))})
		c.Files++
	}
	s.bytes += int64(len(data))
	c.Bytes += int64(len(data))
	s.evictLocked(id)
	return nil
}

// get reads one artifact, refreshing its recency. A missing, torn or
// externally deleted file is a miss. The file read happens with the lock
// released — universe artifacts reach hundreds of megabytes, and one
// read must not stall every other store operation.
func (s *Store) get(tier, key string) (artifact []byte, found bool) {
	done := s.observe(tier, "get")
	defer func() { done(len(artifact), found) }()
	path := s.path(tier, key)
	id := tier + "/" + key
	s.mu.Lock()
	c := s.ctr[tier]
	if _, ok := s.entries[id]; !ok {
		c.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err == nil {
		// ndetect:allow(detrand) the wall clock only stamps LRU recency
		// metadata (mtime); artifact bytes never depend on it.
		now := time.Now()
		os.Chtimes(path, now, now) // best-effort: persist recency across restarts
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-resolve: the entry may have been evicted (or re-written) while
	// the lock was released. A successful read still serves — artifacts
	// are pure functions of their keys, eviction only reclaims space.
	el, ok := s.entries[id]
	if err != nil {
		if ok {
			s.dropLocked(el) // the file vanished underneath the index
		}
		c.Misses++
		return nil, false
	}
	c.Hits++
	if ok {
		s.lru.MoveToFront(el)
	}
	return data, true
}

// drop removes one artifact (used by readers that find it corrupt).
func (s *Store) drop(tier, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[tier+"/"+key]; ok {
		s.dropLocked(el)
	}
}

// evictLocked removes least-recently-used artifacts until the store fits
// its byte budget. keep (when non-empty) names the index entry never to
// evict — the artifact just written, which must survive its own put even
// if it alone exceeds the budget.
func (s *Store) evictLocked(keep string) {
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		el := s.lru.Back()
		if e := el.Value.(*entry); e.tier+"/"+e.key == keep {
			if el = el.Prev(); el == nil {
				return // only the kept entry remains
			}
		}
		s.ctr[s.dropLocked(el).tier].Evictions++
	}
}

// dropLocked removes one indexed artifact, file included, and returns its
// record.
func (s *Store) dropLocked(el *list.Element) *entry {
	e := s.lru.Remove(el).(*entry)
	os.Remove(s.path(e.tier, e.key))
	delete(s.entries, e.tier+"/"+e.key)
	s.bytes -= e.size
	c := s.ctr[e.tier]
	c.Bytes -= e.size
	c.Files--
	return e
}

// Counters returns a snapshot of the monitoring counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Results:   *s.ctr[ResultTier],
		Universes: *s.ctr[UniverseTier],
		Bytes:     s.bytes,
	}
}

func (s *Store) path(tier, key string) string {
	return filepath.Join(s.dir, tier, key)
}

// writeFileAtomic writes data so readers only ever observe the complete
// file: temp file in the same directory, fsync, rename over the target.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
