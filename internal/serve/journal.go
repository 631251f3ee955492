// Package serve implements the vsnoop simulation service: a long-running
// HTTP/JSON daemon that schedules single-config and sweep jobs over the
// deterministic simulator, engineered to survive overload and crashes.
//
// The robustness design rests on four pieces, each in its own file:
//
//   - journal.go: an append-only, fsync'd, checksummed job journal. Every
//     accepted job, every completed config, and every job termination is a
//     journal record, durable before the action is acknowledged. A restart
//     replays the journal: finished work is re-served from the store,
//     unfinished jobs are resubmitted.
//   - store.go: a content-addressed result store keyed by the canonical
//     vsnoop.Config.Hash(). Determinism makes the key sound: equal hashes
//     mean bit-identical results, so a store hit IS the result.
//   - quota.go: per-tenant token buckets — the admission-control half of
//     backpressure (the other half is the bounded runner.Pool queue).
//   - metrics.go: atomic counters exposed in Prometheus text format.
//
// The package is lint-classified "deterministic-only": maprange and
// wallclock gate it (no map iteration, no ambient clock — time is injected
// via Options.Now), while the goroutine-heavy server machinery is exempt
// from wallclock's sim-only atomic confinement.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vsnoop"
)

// Journal record operations.
const (
	opJob = "job" // a job was accepted: ID, Tenant, Configs, Hashes
	opCfg = "cfg" // one config of a job finished: ID, Hash, Status[, Err]
	opEnd = "end" // a job terminated: ID, Status
)

// record is one journal entry. A job's lifecycle is one opJob record, one
// opCfg record per finished config (in completion order), and one opEnd
// record. opCfg records follow the matching store write, so during replay
// an opCfg with Status "ok" implies the result file exists.
type record struct {
	Op      string          `json:"op"`
	ID      string          `json:"id,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Configs []vsnoop.Config `json:"configs,omitempty"`
	Hashes  []string        `json:"hashes,omitempty"`
	Hash    string          `json:"hash,omitempty"`
	Status  string          `json:"status,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// journal is the append-only durable log. Each line is
//
//	%08x <json>\n
//
// where the hex prefix is the IEEE CRC-32 of the JSON payload. Appends are
// fsync'd before returning, so an acknowledged record survives kill -9; a
// torn final line (crash mid-write) fails its checksum and is truncated
// away on the next open. Records never contain raw newlines (encoding/json
// escapes control characters), so line framing is unambiguous.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	frozen atomic.Bool // Abort(): simulate kill -9 — suppress all writes
}

// openJournal opens (creating if absent) the journal at path, replays every
// intact record, truncates any torn tail, and leaves the file positioned
// for appends.
func openJournal(path string) (*journal, []record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good := parseJournal(data)
	if good < int64(len(data)) {
		// Torn or corrupt tail: drop it. Everything after the last intact
		// record was never acknowledged to any client.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f, path: path}, recs, nil
}

// parseJournal decodes records until the first framing or checksum error,
// returning the intact records and the byte offset of the first bad line.
func parseJournal(data []byte) ([]record, int64) {
	var recs []record
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn final line
		}
		line := data[:nl]
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		var sum uint32
		if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
			break
		}
		payload := line[9:]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		recs = append(recs, r)
		data = data[nl+1:]
		off += int64(nl) + 1
	}
	return recs, off
}

// append marshals, checksums, writes, and fsyncs one record. The record is
// durable when append returns nil.
func (j *journal) append(r record) error {
	if j.frozen.Load() {
		return fmt.Errorf("journal: frozen (server aborted)")
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen.Load() {
		return fmt.Errorf("journal: frozen (server aborted)")
	}
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// rewrite atomically replaces the journal contents with recs (startup
// compaction: finished jobs' records are dropped; their results stay in the
// content-addressed store). Write-temp + fsync + rename + dir-fsync, the
// same crash-atomic pattern as store writes.
func (j *journal) rewrite(recs []record) error {
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Close()
			return err
		}
		if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE(payload), payload); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Rename(tmp, j.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	old.Close()
	return nil
}

// freeze suppresses all further writes, simulating the moment of a kill
// -9: whatever is on disk now is exactly what a restart will see.
func (j *journal) freeze() { j.frozen.Store(true) }

func (j *journal) closeFile() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
