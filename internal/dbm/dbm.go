// Package dbm implements a small on-disk hash-table database in the
// style of the classic SDBM and GDBM libraries that Apache mod_dav used
// for WebDAV dead-property storage.
//
// The design mirrors the two properties of those libraries that the
// HPDC 2001 Ecce paper measures:
//
//   - each database preallocates a minimum file size (8 KB for the SDBM
//     flavour, 25 KB for GDBM), so a store holding many small databases
//     pays a fixed per-resource disk overhead; and
//   - deleting or replacing a value only tombstones the old record —
//     dead space is reclaimed exclusively by an explicit Compact call
//     ("manual garbage collection utilities" in the paper).
//
// The SDBM flavour additionally enforces the historical 1 KB limit on
// an individual value; GDBM imposes no limit.
//
// On-disk layout:
//
//	header   : magic "GODBM1\n\x00", flavour byte, 3 pad bytes,
//	           bucketCount uint32, liveBytes uint64, deadBytes uint64
//	buckets  : bucketCount × uint64 — file offset of newest record in
//	           the bucket's chain (0 = empty)
//	records  : appended sequentially; each record is
//	           prev uint64 (older record in same bucket, 0 = none)
//	           flags byte (bit 0: tombstone)
//	           keyLen uint32, valLen uint32, key, value
//
// Lookups hash the key to a bucket and walk the chain newest-first, so
// an overwritten value is shadowed by its replacement. Put appends a
// record and repoints the bucket head; Delete tombstones in place.
//
// Reader invariant: records are append-only and a record's prev was the
// bucket head when it was appended, so along every chain the offsets
// strictly decrease. Every reader decodes with the one bounds-checked
// decodeRecord — the point lookup (findLocked) and the bulk walker
// (walkChains, behind Open, ForEach, Compact and Verify) — and refuses a
// record whose prev is not below its own offset or which lies outside
// the record area, with an error wrapping ErrCorrupt. That bounds every
// walk by the image size: a damaged pointer cannot spin a reader under
// the database mutex. Only Verify goes further and also requires every
// key to hash to the bucket whose chain holds it.
//
// Resident image: an open DB keeps its record area [areaStart, end) in
// memory beside the bucket table. Open reads the file once, validates
// every chain and keeps that buffer; Put builds the record at the
// image's tail, writes it to the file from there and keeps it only if
// that write succeeded; Delete sets the tombstone bit in the file, then
// in the image; Compact swaps in the rebuilt database's image. Get, Has,
// ForEach and Compact's scan decode from the image and never read the
// file. Every write and fsync goes to the file as before, under the
// database mutex, so no reader ever sees a byte the file was not given.
//
// The key and value slices ForEach hands to its callback alias the
// image: they are read-only and capacity-capped, and they stay valid for
// as long as the caller holds them — an append writes past every
// handed-out byte (or moves to a new array and leaves the old one to its
// holders), a tombstone touches a record header, never a key or value,
// and Compact builds a new slice.
//
// What that costs: a file damaged on disk while a DB has it open is
// noticed by the next Open (after Close, a cache eviction or
// Invalidate, a restart) and by Verify/fsck, which read the file — not
// by the next read through the open handle, which serves the image that
// passed validation at Open plus the handle's own writes.
//
// Parking: a DB can give up its file and keep everything else (park).
// The handle cache parks its least recently used idle databases when
// more of them hold a file than its capacity allows, so the capacity
// bounds open files and the cache's byte budget alone bounds resident
// images. A dirty DB is synced before it parks, as Close does. A parked
// DB's Get, Has, ForEach, Len and Memo serve the image and touch no
// file; Put, Delete, Sync, Compact and Stats reopen the file first
// (fileLocked) and check, by os.SameFile and the file's size and mtime,
// that it is the file park closed. A file replaced or rewritten behind
// a parked DB is loaded again — image, accounting and all — before the
// operation, so no record is ever appended from an image the file no
// longer matches; a file that is gone or fails to load fails the
// operation.
//
// Open reads the file into a pooled buffer and keeps a right-sized copy
// of the records in it, so opening a database that is mostly
// preallocation costs its records, not its file size.
//
// Memo slot: an open DB also keeps one value derived from its contents
// (Memo) — the store keeps its decoded property view there, so a read of
// an unchanged database decodes nothing. Every change to the image —
// initialize, each appended record, each tombstone, Compact's swap —
// empties the slot and bumps a write counter under the database mutex,
// and a memo is kept only if the counter did not move while it was
// built: one built while a write landed is handed to its caller but
// never kept, so the slot never holds a value from before the last
// write. Parking keeps the memo; it dies with the DB (Close, eviction,
// Invalidate) and with a reload of a file changed behind a parked DB, and
// the bytes its builder reports count with the image's (and the bucket
// table's) in residentBytes,
// so the handle cache's byte budget and its Bytes statistic cover both.
package dbm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// fsyncErrors counts fsync failures demoted to best-effort (the
// post-compaction directory sync). Surfaced as dav_fsync_errors_total.
var fsyncErrors atomic.Int64

// FsyncErrors reports how many fsync failures the dbm layer has
// swallowed (logged and counted rather than failing the operation).
func FsyncErrors() int64 { return fsyncErrors.Load() }

// syncDirEntry fsyncs a directory so a just-renamed entry survives a
// crash, returning the failure instead of dropping it.
func syncDirEntry(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Flavour selects the emulated DBM variant.
type Flavour byte

const (
	// GDBM: unlimited values, 25 KB initial file size, 512 buckets.
	// It is the zero value because it is the paper's primary
	// configuration and imposes no value-size limit.
	GDBM Flavour = iota
	// SDBM: 1 KB value limit, 8 KB initial file size, 128 buckets.
	SDBM
)

// String returns the conventional library name for the flavour.
func (f Flavour) String() string {
	switch f {
	case SDBM:
		return "SDBM"
	case GDBM:
		return "GDBM"
	default:
		return fmt.Sprintf("Flavour(%d)", byte(f))
	}
}

// params returns the tuning constants for the flavour.
func (f Flavour) params() (maxValue int, initialSize int64, buckets uint32) {
	switch f {
	case SDBM:
		return 1024, 8 * 1024, 128
	default:
		return 0, 25 * 1024, 512
	}
}

const (
	magic      = "GODBM1\n\x00"
	headerSize = int64(len(magic)) + 1 + 3 + 4 + 8 + 8
	recHdrSize = 8 + 1 + 4 + 4

	flagDeleted = 0x01
)

// Errors reported by the package.
var (
	// ErrValueTooLarge is returned by Put when the value exceeds the
	// flavour's per-value limit (SDBM: 1 KB).
	ErrValueTooLarge = errors.New("dbm: value exceeds flavour limit")
	// ErrClosed is returned by operations on a closed database.
	ErrClosed = errors.New("dbm: database is closed")
	// ErrCorrupt is returned when the file fails validation.
	ErrCorrupt = errors.New("dbm: corrupt database file")
)

// Stats describes the storage accounting of a database.
type Stats struct {
	Keys      int   // live key count
	LiveBytes int64 // bytes held by live records (incl. headers)
	DeadBytes int64 // bytes held by tombstoned/shadowed records
	FileSize  int64 // size of the backing file
}

// DB is an open database. It is safe for concurrent use.
type DB struct {
	mu      sync.Mutex
	f       *os.File // nil while parked
	path    string
	flavour Flavour
	// hasFile mirrors f != nil for the handle cache, which counts open
	// files without taking the database mutex.
	hasFile atomic.Bool
	// parkedAs is the file as park closed it, for fileLocked's check
	// that nothing changed it since.
	parkedAs os.FileInfo

	buckets []int64 // in-memory copy of the bucket table
	image   []byte  // the record area [areaStart, end), see the package doc
	nkeys   int
	live    int64
	dead    int64
	closed  bool
	dirty   bool   // written to since the last header write + fsync
	writes  uint64 // changes to the image so far (see changed)
	memo    memo   // empty unless built since the last change

	maxValue    int
	initialSize int64
}

// memo is the DB's one slot for a value derived from its contents.
type memo struct {
	val   any   // nil: empty
	bytes int64 // what val holds beyond the image, as its builder reported
}

// changed records a change to the image: the header needs writing and
// the file an fsync before Close, and the memo is stale. Caller holds
// db.mu, or owns a database nobody else can see.
func (db *DB) changed() {
	db.dirty = true
	db.writes++
	db.memo = memo{}
}

// Open opens or creates the database at path with the given flavour.
// Opening an existing database with a different flavour than it was
// created with is an error.
func Open(path string, flavour Flavour) (*DB, error) {
	return open(path, flavour, true)
}

// open is Open with creation in the caller's hands: with create false a
// missing file is the OpenFile error (fs.ErrNotExist) and nothing is
// created.
func open(path string, flavour Flavour, create bool) (*DB, error) {
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	db := &DB{f: f, path: path, flavour: flavour}
	db.hasFile.Store(true)
	db.maxValue, db.initialSize, _ = flavour.params()

	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() == 0 {
		if err := db.initialize(); err != nil {
			f.Close()
			return nil, err
		}
		return db, nil
	}
	if err := db.load(fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// initialize writes a fresh header and bucket table and preallocates
// the flavour's minimum file size.
func (db *DB) initialize() error {
	_, _, nb := db.flavour.params()
	db.buckets = make([]int64, nb)
	db.changed()
	if err := db.writeHeader(); err != nil {
		return err
	}
	zero := make([]byte, int64(nb)*8)
	if _, err := db.f.WriteAt(zero, headerSize); err != nil {
		return err
	}
	if db.end() < db.initialSize {
		if err := db.f.Truncate(db.initialSize); err != nil {
			return err
		}
	}
	return db.f.Sync()
}

// readBufs holds the buffers load reads files of up to maxPooledRead
// bytes into; a larger file gets a buffer of its own, not pooled.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRead = 256 << 10

// load checks the header against the flavour the database was opened
// as, recovers the append offset and key count by walking every chain
// in the file's bytes, and keeps those bytes as the resident image. It
// changes nothing of db unless the whole file passes.
func (db *DB) load(size int64) error {
	var buf *[]byte
	if size-headerSize <= maxPooledRead {
		buf = readBufs.Get().(*[]byte)
		defer readBufs.Put(buf)
	}
	hdr, area, err := readImage(db.f, size, buf)
	if err != nil {
		return err
	}
	if hdr.flavour != db.flavour {
		return fmt.Errorf("dbm: %s opened as %s but created as %s", db.path, db.flavour, hdr.flavour)
	}
	base := areaStart(hdr.buckets)
	end := base
	nkeys := 0
	err = walkChains(context.Background(), hdr.buckets, area, base, func(_ int, at int64, rec record, newest bool) error {
		if rend := at + rec.size(); rend > end {
			end = rend
		}
		// Only the newest record per key determines liveness; older
		// shadowed versions are dead space.
		if newest && rec.flags&flagDeleted == 0 {
			nkeys++
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.buckets, db.live, db.dead, db.nkeys = hdr.buckets, hdr.live, hdr.dead, nkeys
	// The image is the bytes just validated, up to the append offset: a
	// right-sized copy, so the pooled buffer goes back and a file still at
	// its preallocated size pins none of its zeros. A file too big for the
	// pool was read into a buffer of its own, which becomes the image when
	// the records fill it.
	db.image = area[:end-base]
	if buf != nil || len(db.image) < len(area) {
		db.image = bytes.Clone(db.image)
	}
	return nil
}

// park closes the database's file and keeps its image and memo, so
// reads go on without a file descriptor until an operation that needs
// the file reopens it (fileLocked). A dirty database is synced first, as
// Close does; if that fails the file is closed anyway and the database
// stays dirty, so the next sync writes the header again. A closed or
// parked database is left as it is.
func (db *DB) park() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.f == nil {
		return nil
	}
	var err error
	if db.dirty {
		err = db.syncLocked()
	}
	fi, serr := db.f.Stat()
	if serr != nil {
		// Without the file's identity a reopen could not be checked:
		// keep the file.
		return serr
	}
	if cerr := db.f.Close(); err == nil {
		err = cerr
	}
	db.f, db.parkedAs = nil, fi
	db.hasFile.Store(false)
	return err
}

// fileLocked is where every operation that touches the file starts: it
// refuses a closed database and gives a parked one its file back. A
// file that is no longer the one park closed, or not at the size and
// mtime park left it with, was written behind this DB: its bytes are
// loaded as the image (emptying the memo) rather than extended from the
// stale one. (A rewrite in place at the same size within one timestamp
// tick goes unnoticed, as it does under a DB that never parked.) A file
// that is gone or fails to load fails the operation and leaves the
// database parked. Caller holds db.mu.
func (db *DB) fileLocked() error {
	if db.closed {
		return ErrClosed
	}
	if db.f != nil {
		return nil
	}
	f, err := os.OpenFile(db.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	db.f = f
	if !os.SameFile(fi, db.parkedAs) || fi.Size() != db.parkedAs.Size() || !fi.ModTime().Equal(db.parkedAs.ModTime()) {
		if err := db.load(fi.Size()); err != nil {
			db.f = nil
			f.Close()
			return fmt.Errorf("dbm: %s changed behind a parked handle: %w", db.path, err)
		}
		db.writes++
		db.memo = memo{}
	}
	db.parkedAs = nil
	db.hasFile.Store(true)
	return nil
}

// end is the append offset: the first byte after the newest record.
func (db *DB) end() int64 { return areaStart(db.buckets) + int64(len(db.image)) }

// header is the decoded fixed part of a database image.
type header struct {
	flavour    Flavour
	live, dead int64
	buckets    []int64
}

// readImage reads a database file's bytes from r: the fixed header
// first, so a file that is not a database is refused before anything of
// its size is allocated, then the bucket table and the record area
// (everything after the table) with one ReadAt — into *buf, grown as
// needed, or with buf nil into a buffer of its own.
func readImage(r io.ReaderAt, size int64, buf *[]byte) (header, []byte, error) {
	if size < headerSize {
		return header{}, nil, fmt.Errorf("%w: file shorter than header", ErrCorrupt)
	}
	fixed := make([]byte, headerSize)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return header{}, nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(fixed[:len(magic)]) != magic {
		return header{}, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := header{flavour: Flavour(fixed[len(magic)])}
	off := len(magic) + 4
	nb := binary.LittleEndian.Uint32(fixed[off:])
	h.live = int64(binary.LittleEndian.Uint64(fixed[off+4:]))
	h.dead = int64(binary.LittleEndian.Uint64(fixed[off+12:]))
	if nb == 0 || nb > 1<<20 {
		return header{}, nil, fmt.Errorf("%w: implausible bucket count %d", ErrCorrupt, nb)
	}
	if size < headerSize+int64(nb)*8 {
		return header{}, nil, fmt.Errorf("%w: file shorter than bucket table", ErrCorrupt)
	}
	n := size - headerSize
	if buf == nil {
		buf = new([]byte)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	rest := (*buf)[:n]
	if _, err := r.ReadAt(rest, headerSize); err != nil {
		return header{}, nil, fmt.Errorf("%w: reading %d bytes: %v", ErrCorrupt, size, err)
	}
	h.buckets = make([]int64, nb)
	for i := range h.buckets {
		h.buckets[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return h, rest[int64(nb)*8:], nil
}

// areaStart is the offset of the record area: the first byte after a
// table of that many buckets.
func areaStart(buckets []int64) int64 { return headerSize + int64(len(buckets))*8 }

func (db *DB) writeHeader() error {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	hdr[len(magic)] = byte(db.flavour)
	off := len(magic) + 4
	binary.LittleEndian.PutUint32(hdr[off:], uint32(len(db.buckets)))
	binary.LittleEndian.PutUint64(hdr[off+4:], uint64(db.live))
	binary.LittleEndian.PutUint64(hdr[off+12:], uint64(db.dead))
	_, err := db.f.WriteAt(hdr, 0)
	return err
}

// bucketOf hashes a key (FNV-1a) to a bucket index.
func (db *DB) bucketOf(key []byte) int { return bucketIndex(key, len(db.buckets)) }

func bucketIndex(key []byte, buckets int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(buckets))
}

// record is one decoded record; key and val are slices of the buffer
// it was decoded from.
type record struct {
	prev   int64
	flags  byte
	valLen uint32
	key    []byte
	val    []byte
}

// size is the record's length on disk.
func (r record) size() int64 { return recHdrSize + int64(len(r.key)) + int64(r.valLen) }

// decodeRecHdr decodes the fixed part of the record at offset at and
// enforces the chain-order invariant: prev must be strictly below at.
func decodeRecHdr(hdr []byte, at int64) (r record, keyLen uint32, err error) {
	r.prev = int64(binary.LittleEndian.Uint64(hdr))
	r.flags = hdr[8]
	keyLen = binary.LittleEndian.Uint32(hdr[9:])
	r.valLen = binary.LittleEndian.Uint32(hdr[13:])
	if keyLen > 1<<24 || r.valLen > 1<<31 {
		return record{}, 0, fmt.Errorf("%w: implausible lengths at %d", ErrCorrupt, at)
	}
	if r.prev < 0 || r.prev >= at {
		return record{}, 0, fmt.Errorf("%w: chain at %d points forward to %d (cycle)", ErrCorrupt, at, uint64(r.prev))
	}
	return r, keyLen, nil
}

// decodeRecord decodes the record at file offset at from area, the
// file's bytes from offset base on. Key and value alias area.
func decodeRecord(area []byte, base, at int64) (record, error) {
	off := at - base
	if off < 0 || off+recHdrSize > int64(len(area)) {
		return record{}, fmt.Errorf("%w: record offset %d outside the record area", ErrCorrupt, at)
	}
	r, keyLen, err := decodeRecHdr(area[off:off+recHdrSize], at)
	if err != nil {
		return record{}, err
	}
	kstart := off + recHdrSize
	vstart := kstart + int64(keyLen)
	end := vstart + int64(r.valLen)
	if end > int64(len(area)) {
		return record{}, fmt.Errorf("%w: record at %d runs past the record area", ErrCorrupt, at)
	}
	// Full slice expressions: an append by a caller must not reach into
	// the neighbouring record.
	r.key = area[kstart:vstart:vstart]
	r.val = area[vstart:end:end]
	return r, nil
}

// ctxCheckInterval is how many records a long scan processes between
// context checks — frequent enough that a cancelled walk of even a
// huge chain stops within microseconds, rare enough that ctx.Err()'s
// atomic load never shows up in a profile.
const ctxCheckInterval = 64

// walkChains is the bulk decoder: it walks every bucket chain
// newest-first inside area (the file's bytes from offset base on) and
// calls fn with the bucket, each record's offset, the record, and
// whether it is the newest one for its key. Each hop is bounds-checked
// and must point strictly backwards (decodeRecord).
func walkChains(ctx context.Context, buckets []int64, area []byte, base int64,
	fn func(b int, at int64, rec record, newest bool) error) error {
	n := 0
	for b, head := range buckets {
		// A chain of one record needs no shadowing bookkeeping; the map
		// is built when a second record shows up.
		var headKey []byte
		var seen map[string]bool
		for at := head; at != 0; {
			if n++; n%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rec, err := decodeRecord(area, base, at)
			if err != nil {
				return fmt.Errorf("bucket %d: %w", b, err)
			}
			newest := true
			if at == head {
				headKey = rec.key
			} else {
				if seen == nil {
					seen = map[string]bool{string(headKey): true}
				}
				newest = !seen[string(rec.key)]
				seen[string(rec.key)] = true
			}
			if err := fn(b, at, rec, newest); err != nil {
				return err
			}
			at = rec.prev
		}
	}
	return nil
}

// findLocked returns the offset and record of the newest live record
// for key, or 0 if absent. Caller holds db.mu.
func (db *DB) findLocked(key []byte) (int64, record, error) {
	base := areaStart(db.buckets)
	for at := db.buckets[db.bucketOf(key)]; at != 0; {
		rec, err := decodeRecord(db.image, base, at)
		if err != nil {
			return 0, record{}, err
		}
		if string(rec.key) == string(key) {
			if rec.flags&flagDeleted != 0 {
				return 0, record{}, nil // tombstone shadows older versions
			}
			return at, rec, nil
		}
		at = rec.prev
	}
	return 0, record{}, nil
}

// Get returns the value stored for key, and whether it was present.
// The returned slice is a fresh copy owned by the caller.
func (db *DB) Get(key []byte) (val []byte, found bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	at, rec, err := db.findLocked(key)
	if err != nil || at == 0 {
		return nil, false, err
	}
	return bytes.Clone(rec.val), true, nil
}

// Has reports whether key is present.
func (db *DB) Has(key []byte) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	at, _, err := db.findLocked(key)
	return at != 0, err
}

// Put stores value under key, replacing any existing value. The old
// record, if any, becomes dead space until Compact is called.
func (db *DB) Put(key, value []byte) (err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.fileLocked(); err != nil {
		return err
	}
	if len(key) == 0 {
		return errors.New("dbm: empty key")
	}
	if db.maxValue > 0 && len(value) > db.maxValue {
		return fmt.Errorf("%w: %d > %d (%s)", ErrValueTooLarge, len(value), db.maxValue, db.flavour)
	}
	// Shadow any existing record: chains are walked newest-first, so
	// simply appending a new head suffices, but we must move the old
	// record's bytes from the live to the dead account.
	oldAt, oldRec, err := db.findLocked(key)
	if err != nil {
		return err
	}
	if err := db.appendRecord(key, value); err != nil {
		return err
	}
	if oldAt != 0 {
		sz := oldRec.size()
		db.live -= sz
		db.dead += sz
		db.nkeys--
	}
	return nil
}

// appendRecord writes a live record for key at the append offset, makes
// it the head of its bucket's chain and counts it as a new live key. The
// record is built in the image's tail and stays there only once the
// file has it. Caller holds db.mu, or owns a database nobody else can
// see (Compact's replacement).
func (db *DB) appendRecord(key, value []byte) error {
	b := db.bucketOf(key)
	at, n := db.end(), len(db.image)
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(db.buckets[b]))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(value)))
	db.image = append(append(append(db.image, hdr[:]...), key...), value...)
	db.changed()
	if _, err := db.f.WriteAt(db.image[n:], at); err != nil {
		db.image = db.image[:n]
		return err
	}
	if err := db.setBucketHead(b, at); err != nil {
		return err
	}
	db.live += int64(len(db.image) - n)
	db.nkeys++
	return nil
}

// setBucketHead updates a bucket head both in memory and on disk.
func (db *DB) setBucketHead(b int, at int64) error {
	db.buckets[b] = at
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(at))
	_, err := db.f.WriteAt(buf[:], headerSize+int64(b)*8)
	return err
}

// Delete removes key, reporting whether it was present. The record is
// tombstoned in place; its space is reclaimed only by Compact.
func (db *DB) Delete(key []byte) (found bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.fileLocked(); err != nil {
		return false, err
	}
	at, rec, err := db.findLocked(key)
	if err != nil || at == 0 {
		return false, err
	}
	db.changed()
	if _, err := db.f.WriteAt([]byte{rec.flags | flagDeleted}, at+8); err != nil {
		return false, err
	}
	db.image[at-areaStart(db.buckets)+8] |= flagDeleted
	sz := rec.size()
	db.live -= sz
	db.dead += sz
	db.nkeys--
	return true, nil
}

// ForEach calls fn for every live key/value pair. Iteration order is
// unspecified. If fn returns a non-nil error, iteration stops and the
// error is returned. fn must not call back into the database.
//
// The scan decodes from the resident image and reads nothing from the
// file. key and value are slices of the image: fn may keep them but must
// not modify them (see the package doc for why later writes through
// this DB leave them alone).
func (db *DB) ForEach(fn func(key, value []byte) error) error {
	return db.ForEachContext(context.Background(), fn)
}

// ForEachContext is ForEach with a cancellation checkpoint between
// records: a large property database (the paper's Berkeley-DB-scale
// scans) stops promptly when the requesting client goes away, instead
// of holding the database mutex for the full walk. Iteration is
// read-only, so stopping early leaves nothing to undo.
func (db *DB) ForEachContext(ctx context.Context, fn func(key, value []byte) error) (err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.forEachLocked(ctx, fn)
}

func (db *DB) forEachLocked(ctx context.Context, fn func(key, value []byte) error) error {
	return walkChains(ctx, db.buckets, db.image, areaStart(db.buckets), func(_ int, _ int64, rec record, newest bool) error {
		if !newest || rec.flags&flagDeleted != 0 {
			return nil
		}
		return fn(rec.key, rec.val)
	})
}

// Keys returns every live key. The order is unspecified.
func (db *DB) Keys() ([]string, error) {
	var keys []string
	err := db.ForEach(func(k, _ []byte) error {
		keys = append(keys, string(k))
		return nil
	})
	return keys, err
}

// Len returns the number of live keys.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.nkeys
}

// Stats returns the storage accounting for the database.
func (db *DB) Stats() (Stats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.fileLocked(); err != nil {
		return Stats{}, err
	}
	fi, err := db.f.Stat()
	if err != nil {
		return Stats{}, err
	}
	return Stats{Keys: db.nkeys, LiveBytes: db.live, DeadBytes: db.dead, FileSize: fi.Size()}, nil
}

// Compact rewrites the database, dropping tombstones and shadowed
// records — the manual garbage-collection step the paper describes for
// SDBM/GDBM. The file shrinks to the live data (never below the
// flavour's initial size).
func (db *DB) Compact() (err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.fileLocked(); err != nil {
		return err
	}
	tmpPath := db.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)

	ndb := &DB{f: tmp, path: tmpPath, flavour: db.flavour}
	ndb.maxValue, ndb.initialSize, _ = db.flavour.params()
	if err := ndb.initialize(); err != nil {
		tmp.Close()
		return err
	}
	err = db.forEachLocked(context.Background(), func(k, v []byte) error {
		return ndb.appendRecord(k, v)
	})
	if err != nil {
		tmp.Close()
		return err
	}
	if err := ndb.writeHeader(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, db.path); err != nil {
		return err
	}
	// Make the rename durable: fsync the directory entry. The
	// compaction already succeeded, so a failure here is demoted to a
	// WARN log and the dav_fsync_errors_total counter rather than
	// failing the call — but it is no longer silently dropped (some
	// filesystems refuse to sync directories).
	if err := syncDirEntry(filepath.Dir(db.path)); err != nil {
		fsyncErrors.Add(1)
		slog.Warn("dbm: directory fsync failed after compaction rename; entry may not survive power loss",
			"db", db.path, "err", err)
	}
	old := db.f
	f, err := os.OpenFile(db.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	db.f = f
	db.buckets, db.image = ndb.buckets, ndb.image
	db.nkeys = ndb.nkeys
	db.live = ndb.live
	db.dead = 0
	db.changed()
	return nil
}

// Sync flushes the header accounting and file contents to stable
// storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.fileLocked(); err != nil {
		return err
	}
	return db.syncLocked()
}

// syncLocked writes the header accounting and fsyncs, after which the
// file holds everything this DB knows.
func (db *DB) syncLocked() error {
	if err := db.writeHeader(); err != nil {
		return err
	}
	if err := db.f.Sync(); err != nil {
		return err
	}
	db.dirty = false
	return nil
}

// Close closes the database, first syncing it if it has been written to
// since the last sync: a handle that only read leaves the file's bytes
// and mtime alone. A parked database has nothing left to close, unless
// the sync as it parked failed. Further operations return ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	var err error
	if db.dirty {
		if err = db.fileLocked(); err == nil {
			err = db.syncLocked()
		}
	}
	db.closed = true
	db.memo = memo{}
	if db.f != nil {
		if cerr := db.f.Close(); err == nil {
			err = cerr
		}
		db.hasFile.Store(false)
	}
	return err
}

// Memo returns a value derived from the database's contents: the one
// kept in the DB's memo slot if nothing has been written since it was
// built, otherwise what build returns now. build reads the database
// through this DB (ForEach) and reports the bytes its value holds beyond
// the image, which then count in the handle cache's budget. It runs
// without the database mutex, so a write may land while it reads; its
// value is then handed to this caller, whose read it is, but not kept.
// A build error is returned and nothing is kept.
//
// The value is shared by every caller until the next write: it must be
// immutable once build returns it.
func (db *DB) Memo(build func() (val any, bytes int64, err error)) (any, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	at, m := db.writes, db.memo
	db.mu.Unlock()
	if m.val != nil {
		return m.val, nil
	}
	val, n, err := build()
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if !db.closed && db.writes == at {
		db.memo = memo{val: val, bytes: n}
	}
	db.mu.Unlock()
	return val, nil
}

// residentBytes is what the image, the bucket table and the memo hold
// in memory. The table (4 KiB for GDBM, 1 KiB for SDBM) is most of what
// a parked database of a few properties keeps, so the byte budget must
// see it for it to bound how many of them stay cached.
func (db *DB) residentBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return int64(cap(db.image)) + 8*int64(len(db.buckets)) + db.memo.bytes
}

// Path returns the backing file path.
func (db *DB) Path() string { return db.path }

// FlavourOf reads the flavour byte from an existing database file
// without opening it fully.
func FlavourOf(path string) (Flavour, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return Flavour(hdr[len(magic)]), nil
}
