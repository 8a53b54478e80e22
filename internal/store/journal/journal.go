// Package journal implements the write-ahead intent journal behind
// FSStore's crash consistency. Before a multi-step mutation (PUT's
// stage-rename-props sequence, a tree DELETE, a MOVE's content+props
// rename pair, a COPY, a MKCOL) the store appends an intent record and
// fsyncs it; after the last step it appends a commit record. A crash
// therefore leaves at most one generation of unfinished work, and each
// unfinished intent carries enough context (operation, paths, staged
// temp-file name, pre-operation generation) for recovery to roll the
// operation forward to its post-state or back to its pre-state —
// never leaving a torn content/properties/generation combination.
//
// On-disk format: one record per line,
//
//	<crc32-hex8> <json>\n
//
// where the CRC covers the JSON bytes. The file is append-only between
// rotations. A torn tail — a partial last line from a crash mid-append
// — fails its CRC and is discarded (and truncated away on the next
// open); everything before it is trusted. Commit records are appended
// without an fsync of their own: recovery is idempotent, so replaying
// a completed-but-uncommitted intent converges to the same state, and
// the next intent's fsync makes earlier commits durable anyway.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Op names the journaled store operations.
type Op string

// The journaled multi-step operations.
const (
	OpPut    Op = "put"
	OpDelete Op = "delete"
	OpRename Op = "rename"
	OpCopy   Op = "copy"
	OpMkcol  Op = "mkcol"
)

// Record kinds.
const (
	kindIntent = "intent"
	kindCommit = "commit"
)

// Record is one journal entry. Intent records carry the operation
// context; commit records carry only the sequence number they resolve.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	Op   Op     `json:"op,omitempty"`
	// Path is the canonical resource path the operation mutates (the
	// source for rename/copy).
	Path string `json:"path,omitempty"`
	// Dst is the destination path for rename/copy.
	Dst string `json:"dst,omitempty"`
	// Tmp is the base name of the staged temp file (put).
	Tmp string `json:"tmp,omitempty"`
	// IsDir records whether the resource is a collection (delete,
	// rename), fixing the recovery strategy.
	IsDir bool `json:"dir,omitempty"`
	// Created records that a put targets a path with no existing
	// document (no generation bump on roll-forward).
	Created bool `json:"created,omitempty"`
	// Gen is the pre-operation overwrite generation (put): after a
	// roll-forward the resource's generation must exceed it.
	Gen int64 `json:"gen,omitempty"`
	// CType is the explicit content type a put persists, if any.
	CType string `json:"ctype,omitempty"`
	// Recurse records a copy's depth (copy).
	Recurse bool `json:"recurse,omitempty"`
}

// ErrCorrupt is returned when a journal file fails validation beyond
// the tolerated torn tail.
var ErrCorrupt = errors.New("journal: corrupt journal file")

// rotateAfter is how many appended records a journal tolerates before
// an idle commit truncates the file back to empty.
const rotateAfter = 512

// Journal is an open intent journal. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	lastSeq uint64
	pending map[uint64]Record
	order   []uint64 // pending seqs in append order
	appends int      // records since the last rotation
}

// Open opens (creating if needed) the journal at path and replays it:
// intents without a matching commit become the pending set. A torn
// final line is discarded and truncated away.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, pending: map[uint64]Record{}}
	if err := j.load(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load replays the records, computing lastSeq and the pending set, and
// truncates a torn tail.
func (j *Journal) load() error {
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	var good int64 // offset past the last fully valid line
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		rec, ok := parseLine(line)
		if !ok {
			// Torn or corrupt line: trust nothing at or past it. A
			// tear can only be the in-flight append at crash time, so
			// at most one record is lost — and an intent is only acted
			// on once durable, so a lost record was never acted on.
			break
		}
		good += int64(len(line)) + 1
		j.appends++
		switch rec.Kind {
		case kindIntent:
			if _, dup := j.pending[rec.Seq]; !dup {
				j.pending[rec.Seq] = rec
				j.order = append(j.order, rec.Seq)
			}
		case kindCommit:
			if _, ok := j.pending[rec.Seq]; ok {
				delete(j.pending, rec.Seq)
				j.order = removeSeq(j.order, rec.Seq)
			}
		}
		if rec.Seq > j.lastSeq {
			j.lastSeq = rec.Seq
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return err
	}
	fi, err := j.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() > good {
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("%w: truncating torn tail: %v", ErrCorrupt, err)
		}
	}
	_, err = j.f.Seek(0, 2)
	return err
}

func removeSeq(order []uint64, seq uint64) []uint64 {
	for i, s := range order {
		if s == seq {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// parseLine decodes one "<crc8> <json>" line; ok=false marks a torn or
// corrupt record.
func parseLine(line string) (Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, false
	}
	want, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return Record{}, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return Record{}, false
	}
	if rec.Kind != kindIntent && rec.Kind != kindCommit {
		return Record{}, false
	}
	return rec, true
}

// append writes one record line. Caller holds j.mu.
func (j *Journal) append(rec Record, sync bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	j.appends++
	if sync {
		return j.f.Sync()
	}
	return nil
}

// Begin appends rec as an intent and fsyncs it, returning the assigned
// sequence number. The caller must not start mutating until Begin
// returns: the intent has to be durable before the first step it
// describes.
func (j *Journal) Begin(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastSeq++
	rec.Seq = j.lastSeq
	rec.Kind = kindIntent
	if err := j.append(rec, true); err != nil {
		return 0, err
	}
	j.pending[rec.Seq] = rec
	j.order = append(j.order, rec.Seq)
	return rec.Seq, nil
}

// Commit appends the commit record for seq. When nothing is pending
// afterwards and the file has grown past the rotation threshold, the
// journal is truncated back to empty (sequence numbers keep rising).
func (j *Journal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(Record{Seq: seq, Kind: kindCommit}, false); err != nil {
		return err
	}
	delete(j.pending, seq)
	j.order = removeSeq(j.order, seq)
	if len(j.pending) == 0 && j.appends >= rotateAfter {
		return j.resetLocked()
	}
	return nil
}

// Pending returns the unresolved intents in append order.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.order))
	for _, seq := range j.order {
		out = append(out, j.pending[seq])
	}
	return out
}

// Reset truncates the journal to empty, dropping every record. Call
// only after all pending intents are resolved (recovery does).
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = map[uint64]Record{}
	j.order = nil
	return j.resetLocked()
}

// resetLocked truncates the backing file and fsyncs the truncation.
// Caller holds j.mu.
func (j *Journal) resetLocked() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	j.appends = 0
	return j.f.Sync()
}

// Len reports how many intents are pending.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err1 := j.f.Sync()
	err2 := j.f.Close()
	j.f = nil
	if err1 != nil {
		return err1
	}
	return err2
}

// ReadPending parses the journal at path without opening it for
// writing and without truncating a torn tail — a pure read for
// inspection tools (fsck's check mode must not mutate the store). A
// missing journal yields no records. Torn or corrupt lines stop the
// replay exactly as Open would.
func ReadPending(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	pending := map[uint64]Record{}
	var order []uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		rec, ok := parseLine(sc.Text())
		if !ok {
			break
		}
		switch rec.Kind {
		case kindIntent:
			if _, dup := pending[rec.Seq]; !dup {
				pending[rec.Seq] = rec
				order = append(order, rec.Seq)
			}
		case kindCommit:
			if _, ok := pending[rec.Seq]; ok {
				delete(pending, rec.Seq)
				order = removeSeq(order, rec.Seq)
			}
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, err
	}
	out := make([]Record, 0, len(order))
	for _, seq := range order {
		out = append(out, pending[seq])
	}
	return out, nil
}

// String renders a record compactly for logs and fsck reports.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s %s", r.Seq, r.Kind, r.Op, r.Path)
	if r.Dst != "" {
		fmt.Fprintf(&b, " -> %s", r.Dst)
	}
	return b.String()
}
