package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vsnoop"
)

// Record is one stored result: the canonical hash, the configuration that
// produced it, and the simulation result. Result.Stats is dropped, so that
// byte equality is meaningful: the low-level record embeds execution
// telemetry (parked and cancelled events), which measures how the run was
// executed, not what it computed. Everything that remains is a pure
// function of the hash. Records written while Config still had execution
// knobs the hash never covered (a shard count, a barrier-protocol switch)
// carry them as zeroed JSON fields, which loading ignores.
type Record struct {
	Hash   string         `json:"hash"`
	Config vsnoop.Config  `json:"config"`
	Result *vsnoop.Result `json:"result"`
}

// normalizeRecord builds the canonical stored form.
func normalizeRecord(cfg vsnoop.Config, res *vsnoop.Result) Record {
	r := *res
	r.Stats = nil
	return Record{Hash: cfg.Hash(), Config: cfg, Result: &r}
}

// store is the content-addressed result store: one JSON file per hash,
// written with the write-temp + fsync + rename + dir-fsync pattern so a
// file either exists completely or not at all — kill -9 can never leave a
// half-written result visible under its final name.
//
// When maxBytes > 0 the store is size-bounded: gc evicts the oldest
// unreferenced records (oldest write first; at startup, oldest file mtime
// first) until the total fits. Eviction is a pure cache decision —
// determinism means any evicted result can be recomputed bit-identically
// from its config — and each removal is a single atomic unlink, so a crash
// mid-eviction leaves only states a clean restart rebuilds from the
// directory scan.
type store struct {
	dir      string
	maxBytes int64 // 0 = unbounded
	frozen   atomic.Bool

	// evictions counts records removed by gc (the
	// vsnoop_store_evictions_total metric).
	evictions atomic.Uint64

	// mu guards the size accounting. Readers (raw/get) are deliberately
	// outside it: a record evicted between lookup and read surfaces as a
	// plain miss, which every caller already handles by recomputing.
	mu    sync.Mutex
	sizes map[string]int64
	order []string // eviction order: oldest first
	total int64
}

// openStore opens the store rooted at dir, deletes any *.tmp leftovers
// from a crash mid-write, and rebuilds the size accounting from a
// directory scan (oldest mtime first, hash as the deterministic
// tiebreaker). It never evicts on its own — the server runs the first gc
// after journal replay, when the live-reference set is known.
func openStore(dir string, maxBytes int64) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &store{dir: dir, maxBytes: maxBytes, sizes: make(map[string]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type meta struct {
		hash string
		size int64
		mod  int64
	}
	var metas []meta
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between write and rename left a temp file; it was
			// never visible under its final name, so dropping it is safe.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		h, ok := strings.CutSuffix(name, ".json")
		if !ok || !validHash(h) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		metas = append(metas, meta{hash: h, size: fi.Size(), mod: fi.ModTime().UnixNano()})
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].mod != metas[j].mod {
			return metas[i].mod < metas[j].mod
		}
		return metas[i].hash < metas[j].hash
	})
	for _, m := range metas {
		s.sizes[m.hash] = m.size
		s.order = append(s.order, m.hash)
		s.total += m.size
	}
	return s, nil
}

// bytes returns the accounted store size (the vsnoop_store_bytes gauge).
func (s *store) bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// account registers a freshly renamed record in the size bookkeeping.
func (s *store) account(hash string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sizes[hash]; !dup {
		s.sizes[hash] = n
		s.order = append(s.order, hash)
		s.total += n
	}
}

// gc evicts oldest-first until the store fits maxBytes, skipping hashes in
// referenced (results that queued or running jobs still need). If every
// record is referenced the store may transiently exceed its bound — live
// work is never sacrificed to the cache limit. Each eviction is one atomic
// unlink; the directory is fsync'd once at the end so the batch is durable.
func (s *store) gc(referenced map[string]bool) {
	if s.maxBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := false
	for s.total > s.maxBytes && !s.frozen.Load() {
		victim := -1
		for i, h := range s.order {
			if !referenced[h] {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		h := s.order[victim]
		if err := os.Remove(s.path(h)); err != nil && !os.IsNotExist(err) {
			break
		}
		s.evictions.Add(1)
		s.total -= s.sizes[h]
		delete(s.sizes, h)
		s.order = append(s.order[:victim], s.order[victim+1:]...)
		removed = true
	}
	if removed {
		syncDir(s.dir)
	}
}

// validHash reports whether h is a lowercase hex SHA-256 — both an API
// input check and a path-traversal guard (hashes become file names).
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// raw returns the stored bytes for hash, exactly as written. Serving raw
// bytes (rather than re-marshaling) is what makes "bit-identical re-serve"
// literal: two GETs of the same hash — before and after a crash, from a
// replayed or a fresh computation — return the same bytes.
func (s *store) raw(hash string) ([]byte, bool, error) {
	if !validHash(hash) {
		return nil, false, fmt.Errorf("store: invalid hash %q", hash)
	}
	data, err := os.ReadFile(s.path(hash))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// get reads and validates the record for hash.
func (s *store) get(hash string) (*Record, bool, error) {
	data, ok, err := s.raw(hash)
	if !ok || err != nil {
		return nil, false, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false, fmt.Errorf("store: corrupt record %s: %w", hash, err)
	}
	if rec.Hash != hash {
		return nil, false, fmt.Errorf("store: record %s claims hash %s", hash, rec.Hash)
	}
	return &rec, true, nil
}

// put durably writes rec, keyed by its hash. Writing the same hash twice
// is a no-op (first write wins; determinism guarantees the bytes would
// match anyway, and keeping the original preserves byte identity).
func (s *store) put(rec Record) error {
	if s.frozen.Load() {
		return fmt.Errorf("store: frozen (server aborted)")
	}
	if !validHash(rec.Hash) {
		return fmt.Errorf("store: invalid hash %q", rec.Hash)
	}
	final := s.path(rec.Hash)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if s.frozen.Load() {
		os.Remove(tmp)
		return fmt.Errorf("store: frozen (server aborted)")
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.account(rec.Hash, int64(len(data)+1))
	return nil
}

// freeze suppresses further writes (Abort; see journal.freeze).
func (s *store) freeze() { s.frozen.Store(true) }
