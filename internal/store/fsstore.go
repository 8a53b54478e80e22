package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"maps"
	"mime"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/dbm"
	"repro/internal/store/journal"
	"repro/internal/store/pathlock"
	"repro/internal/xmldom"
)

// propDirName is the per-directory metadata directory, mirroring
// mod_dav's ".DAV" working directory. It is invisible to DAV clients.
const propDirName = ".DAV"

// collectionPropsFile holds the properties of the directory itself.
const collectionPropsFile = ".dirprops"

// propsExt is the extension of per-member property databases.
const propsExt = ".props"

// journalFileName is the intent journal, kept in the root's metadata
// directory next to the root collection's property database.
const journalFileName = "journal"

// Exported layout knowledge for tooling that walks the store on disk
// (the fsck package above all). The values are part of the mod_dav
// layout contract and must not change for existing stores.
const (
	// MetaDirName is the per-directory metadata directory name.
	MetaDirName = propDirName
	// PropsExt is the property-database file extension.
	PropsExt = propsExt
	// CollectionPropsBase is the base name (without PropsExt) of a
	// collection's own property database inside its metadata directory.
	CollectionPropsBase = collectionPropsFile
	// JournalFileName is the intent journal's file name inside the
	// root's metadata directory.
	JournalFileName = journalFileName
)

// IsTmpName reports whether a directory entry name is a staging
// temporary — an unrenamed Put body (".put-*") or an unfinished DBM
// compaction ("*.compact"). Such files are crash debris: recovery and
// fsck sweep them.
func IsTmpName(name string) bool {
	return strings.HasPrefix(name, ".put-") || strings.HasSuffix(name, ".compact")
}

// GenerationKey is the DBM key holding a document's overwrite
// generation (fsck reads it to validate monotonicity).
func GenerationKey() []byte { return internalKey(ikeyGeneration) }

// Internal DBM keys.
const (
	ikeyContentType = "ctype"
	// ikeyGeneration is a per-resource counter bumped on every document
	// overwrite. It feeds the ETag so two overwrites that leave the
	// same size and the same (nanosecond) mtime still produce distinct
	// ETags — without it, If-Match could validate a stale ETag.
	ikeyGeneration = "gen"
)

// DefaultHandleCacheSize is the default bound on the property-database
// files the store's DBM cache keeps open. Past it the cache parks a
// database (dbm.Cache): its file closes, its image stays in memory.
const DefaultHandleCacheSize = 256

// FSOptions tunes NewFSStoreWith.
type FSOptions struct {
	// HandleCacheSize bounds the property-database files the shared
	// handle cache keeps open. Zero or negative means
	// DefaultHandleCacheSize.
	HandleCacheSize int
	// DeferRecovery opens the store without running startup recovery.
	// The store reports Recovering() == true and fails every mutation
	// with ErrRecovering until Recover is called — daemons use this to
	// start serving reads immediately and run recovery in the
	// background while /readyz reports "recovering".
	DeferRecovery bool
	// StepHook, when set, is invoked at every named step boundary
	// inside multi-step mutations ("put.renamed", "delete.content",
	// ...). It exists only for tests: the crash-point fault injector
	// (internal/chaos.CrashPoint) panics from it to simulate a crash
	// between two steps. Production stores leave it nil.
	StepHook func(point string)
}

// FSStore is the mod_dav-style store: documents are files, collections
// are directories, and each resource that has metadata owns a DBM
// database file under its parent's .DAV directory. Raw data therefore
// stays directly visible in the filesystem, as the paper requires.
//
// Concurrency: every operation takes a hierarchical path lock (shared
// for reads, exclusive for writes) instead of a store-wide mutex, so
// operations on disjoint subtrees proceed fully in parallel, and an
// exclusive lock on a collection covers its whole subtree — which is
// what Delete and Rename rely on. Property databases are reached
// through a shared refcounted handle cache rather than being opened per
// operation.
//
// Cancellation: every operation takes the request context. Lock waits
// abort when it is done, and multi-step mutations checkpoint it at
// step boundaries where nothing user-visible has mutated yet — a
// cancelled PUT removes its staged temporary and resolves its intent
// as a no-op. Once the decisive visible step has run (the rename into
// place, the first removal), the operation finishes regardless of
// cancellation: completing is cheaper than the torn middle, and the
// journal's crash recovery covers a process death either way.
type FSStore struct {
	root    string
	flavour dbm.Flavour
	locks   *pathlock.Manager
	cache   *dbm.Cache
	shared  *fsShared
}

// fsShared is the store state kept behind one pointer so FSStore stays
// copy-friendly: the intent journal, the recovering write gate, the
// crash-point step hook, and the recovery counters.
type fsShared struct {
	journal    *journal.Journal
	recovering atomic.Bool
	stepHook   func(string)
	// recoverMu serializes Recover passes (a background startup
	// recovery racing an explicit Recover call must not resolve the
	// same intent twice).
	recoverMu sync.Mutex

	recoverRuns     atomic.Int64
	rolledForward   atomic.Int64
	rolledBack      atomic.Int64
	sweptTmp        atomic.Int64
	lastRecoverNano atomic.Int64

	// Live progress of the current (or most recent) recovery pass,
	// surfaced in /readyz while the store is recovering so operators
	// can watch the backlog drain instead of staring at a flag.
	passResolved atomic.Int64
	passSwept    atomic.Int64
}

// fsyncErrors counts directory/file fsync failures that were demoted
// to best-effort (see syncDir). Surfaced as dav_fsync_errors_total.
var fsyncErrors atomic.Int64

// FsyncErrors reports how many fsync failures the store layer has
// swallowed (logged and counted rather than failing the write).
func FsyncErrors() int64 { return fsyncErrors.Load() }

var _ Store = (*FSStore)(nil)

// NewFSStore opens (creating if needed) a store rooted at dir, using
// the given DBM flavour for property databases and default options.
func NewFSStore(dir string, flavour dbm.Flavour) (*FSStore, error) {
	return NewFSStoreWith(dir, flavour, FSOptions{})
}

// NewFSStoreWith is NewFSStore with explicit tuning.
//
// Opening also establishes crash consistency: the intent journal is
// opened (created on first use), and startup recovery — unless
// deferred — resolves any intents a crash left unfinished and sweeps
// stale staging temporaries, so a store that crashed mid-PUT or
// mid-MOVE is consistent again before the first operation runs.
func NewFSStoreWith(dir string, flavour dbm.Flavour, o FSOptions) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	size := o.HandleCacheSize
	if size <= 0 {
		size = DefaultHandleCacheSize
	}
	s := &FSStore{
		root:    abs,
		flavour: flavour,
		locks:   pathlock.NewManager(),
		cache:   dbm.NewCache(size, flavour),
		shared:  &fsShared{stepHook: o.StepHook},
	}
	metaDir := filepath.Join(abs, propDirName)
	if err := os.MkdirAll(metaDir, 0o755); err != nil {
		s.cache.Close()
		return nil, err
	}
	j, err := journal.Open(filepath.Join(metaDir, journalFileName))
	if err != nil {
		s.cache.Close()
		return nil, err
	}
	s.shared.journal = j
	if o.DeferRecovery {
		s.shared.recovering.Store(true)
		return s, nil
	}
	if _, err := s.Recover(); err != nil {
		s.Close()
		return nil, fmt.Errorf("store: startup recovery: %w", err)
	}
	return s, nil
}

// Root returns the store's root directory on disk.
func (s *FSStore) Root() string { return s.root }

// LockStats snapshots the hierarchical path-lock counters.
func (s *FSStore) LockStats() pathlock.Stats { return s.locks.Stats() }

// CacheStats snapshots the property-database handle-cache counters.
func (s *FSStore) CacheStats() dbm.CacheStats { return s.cache.Stats() }

// Close releases the store: every cached property database is closed
// (pinned handles close on their release) and the intent journal is
// synced and closed.
func (s *FSStore) Close() error {
	err := s.cache.Close()
	if jerr := s.shared.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// Recovering reports whether the store is still gated behind recovery
// (writes fail with ErrRecovering until Recover completes).
func (s *FSStore) Recovering() bool { return s.shared.recovering.Load() }

// Journal exposes the intent journal for fsck, metrics and tests.
func (s *FSStore) Journal() *journal.Journal { return s.shared.journal }

// step fires the crash-point hook at a named step boundary. A nil hook
// (every production store) costs one predictable branch.
func (s *FSStore) step(point string) {
	if h := s.shared.stepHook; h != nil {
		h(point)
	}
}

// writeGate rejects mutations while the store is recovering.
func (s *FSStore) writeGate() error {
	if s.shared.recovering.Load() {
		return fmt.Errorf("%w: %s", ErrRecovering, s.root)
	}
	return nil
}

// beginIntent appends a fsync'd intent record.
func (s *FSStore) beginIntent(rec journal.Record) (uint64, error) {
	return s.shared.journal.Begin(rec)
}

// commitIntent appends the commit record for id. A failed commit write
// is logged, not returned: the operation itself succeeded, and an
// uncommitted intent only costs an idempotent roll-forward at the next
// recovery.
func (s *FSStore) commitIntent(id uint64) {
	if id == 0 {
		return // an unjournaled step (putLocked with journaled=false)
	}
	if err := s.shared.journal.Commit(id); err != nil {
		slog.Warn("store: journal commit failed; next recovery will re-resolve",
			"seq", id, "err", err)
	}
}

// diskPath maps a canonical resource path to a filesystem path,
// rejecting paths that use the reserved metadata directory name.
func (s *FSStore) diskPath(p string) (string, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return "", err
	}
	if cp != "/" {
		for _, seg := range strings.Split(cp[1:], "/") {
			if seg == propDirName {
				return "", fmt.Errorf("%w: %q is reserved", ErrBadPath, propDirName)
			}
		}
	}
	return filepath.Join(s.root, filepath.FromSlash(cp)), nil
}

// propsPath returns the property database path of the resource cp at
// disk path dp: a collection's lives in its own metadata directory, a
// document's in its parent's.
func (s *FSStore) propsPath(dp, cp string, isDir bool) string {
	if isDir {
		return filepath.Join(dp, propDirName, collectionPropsFile+propsExt)
	}
	return s.memberPropsPath(dp, cp)
}

// memberPropsPath is propsPath for a known document (also used after
// the document has been removed).
func (s *FSStore) memberPropsPath(dp, cp string) string {
	return filepath.Join(filepath.Dir(dp), propDirName, path.Base(cp)+propsExt)
}

// mapFSErr turns a filesystem error about p into the store's. A path
// below a document (ENOTDIR) names nothing, as a missing one does.
func mapFSErr(err error, p string) error {
	switch {
	case err == nil:
		return nil
	case os.IsNotExist(err), errors.Is(err, syscall.ENOTDIR):
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	case os.IsExist(err):
		return fmt.Errorf("%w: %s", ErrExists, p)
	default:
		return err
	}
}

// withProps opens the property database of resource cp — a collection
// if isDir, which every caller knows from the stat it has already done —
// through the handle cache, creating it if create is true. When create
// is false and the database does not exist, nothing is created, fn is
// not called and the result is nil (empty database semantics). Caller
// holds the resource's path lock.
func (s *FSStore) withProps(ctx context.Context, cp string, isDir, create bool, fn func(*dbm.Handle) error) error {
	dp, err := s.diskPath(cp)
	if err != nil {
		return err
	}
	return s.withPropsAt(ctx, s.propsPath(dp, cp, isDir), create, fn)
}

// withPropsAt is withProps for a caller that already holds the
// database's path pp (propsPath's result).
func (s *FSStore) withPropsAt(ctx context.Context, pp string, create bool, fn func(*dbm.Handle) error) error {
	h, err := s.cache.Acquire(ctx, pp, create)
	if errors.Is(err, fs.ErrNotExist) {
		if !create {
			return nil
		}
		// The first database in this collection: its metadata directory
		// does not exist yet.
		if err := os.MkdirAll(filepath.Dir(pp), 0o755); err != nil {
			return err
		}
		h, err = s.cache.Acquire(ctx, pp, true)
	}
	if err != nil {
		return err
	}
	defer h.Close()
	return fn(h)
}

// statKind is the existence check of the property operations: one stat
// of the resource, answering whether it is a collection.
func (s *FSStore) statKind(cp string) (isDir bool, err error) {
	dp, err := s.diskPath(cp)
	if err != nil {
		return false, err
	}
	fi, err := os.Stat(dp)
	if err != nil {
		return false, mapFSErr(err, cp)
	}
	return fi.IsDir(), nil
}

// Stat implements Store. A document whose property database cannot be
// read is described from its file alone: its inferred content type and
// an ETag without the generation.
func (s *FSStore) Stat(ctx context.Context, p string) (ResourceInfo, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return ResourceInfo{}, err
	}
	g, err := s.locks.RLock(ctx, cp)
	if err != nil {
		return ResourceInfo{}, err
	}
	defer g.Release()
	mp, _, err := s.resolve(ctx, cp)
	return mp.Info, err
}

// resolve stats cp and reads its property view (resolveWithProps) under
// an already-held lock. err is the file's; when it is nil, mp.Info is
// filled even if perr reports a property database that cannot be read.
func (s *FSStore) resolve(ctx context.Context, cp string) (mp MemberProps, perr, err error) {
	dp, err := s.diskPath(cp)
	if err != nil {
		return mp, nil, err
	}
	fi, err := os.Stat(dp)
	if err != nil {
		return mp, nil, mapFSErr(err, cp)
	}
	mp, perr = s.resolveWithProps(ctx, cp, s.propsPath(dp, cp, fi.IsDir()), fi)
	return mp, perr, nil
}

// fillDocInfo completes a document's ResourceInfo from its file info
// and internal metadata.
func (s *FSStore) fillDocInfo(ri *ResourceInfo, fi fs.FileInfo, ctype string, gen int64) {
	ri.Size = fi.Size()
	ri.ETag = etagFor(fi, gen)
	ri.ContentType = inferContentType(ri.Path)
	// An explicitly supplied content type overrides the inferred one;
	// like mod_dav, this is one of the pieces of system metadata kept
	// in the property database.
	if ctype != "" {
		ri.ContentType = ctype
	}
}

// etagFor derives a document ETag from the file's inode number, size,
// mtime and the overwrite generation, as Apache's FileETag INode MTime
// Size does. The inode tells apart two bodies of one size written
// within one timestamp tick, which a MOVE otherwise lets one path serve
// under one ETag (Rename carries the source's mtime and generation):
// two live files never share an inode. It is written at a fixed 16 hex
// digits so a response's length does not depend on where the file
// landed. Resources never overwritten carry no generation; the suffix
// appears from the first overwrite on and makes same-size
// same-nanosecond rewrites of one file distinguishable.
func etagFor(fi fs.FileInfo, gen int64) string {
	var ino uint64
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		ino = uint64(st.Ino)
	}
	const hexDigits = "0123456789abcdef"
	b := make([]byte, 0, 70)
	b = append(b, '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[ino>>uint(shift)&0xf])
	}
	b = append(b, '-')
	b = strconv.AppendInt(b, fi.Size(), 16)
	b = append(b, '-')
	b = strconv.AppendInt(b, fi.ModTime().UnixNano(), 16)
	if gen > 0 {
		b = append(b, '-')
		b = strconv.AppendInt(b, gen, 16)
	}
	b = append(b, '"')
	return string(b)
}

// List returns the members of the collection at p, sorted by path.
//
// It is not part of Store: outside the tests, the benchmark's spanStore
// is its only caller, and ROADMAP item 1(a) removes it.
func (s *FSStore) List(ctx context.Context, p string) ([]ResourceInfo, error) {
	members, err := s.ListWithProps(ctx, p)
	if err != nil {
		return nil, err
	}
	infos := make([]ResourceInfo, len(members))
	for i, m := range members {
		infos[i] = m.Info
	}
	return infos, nil
}

// list reads the members of cp, sorted by path, each with its property
// view, under an already-held shared lock. Every member's paths are
// built from the collection's own: its database is
// dp/.DAV/<name>.props for a document, dp/<name>/.DAV/.dirprops.props
// for a collection, as propsPath would derive them.
func (s *FSStore) list(ctx context.Context, cp string) ([]MemberProps, error) {
	dp, err := s.diskPath(cp)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(dp)
	if err != nil {
		return nil, mapFSErr(err, cp)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrNotCollection, cp)
	}
	// os.ReadDir sorts by name, so the members come out sorted by path.
	ents, err := os.ReadDir(dp)
	if err != nil {
		return nil, err
	}
	const sep = string(filepath.Separator)
	dir := strings.TrimSuffix(dp, sep) + sep // dp is clean; only a root of "/" ends in sep
	prefix := cp + "/"
	if cp == "/" {
		prefix = cp
	}
	members := make([]MemberProps, 0, len(ents))
	for _, e := range ents {
		name := e.Name()
		if name == propDirName {
			continue
		}
		// A wide collection listing touches one property database per
		// member; stop resolving members once the request is abandoned.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		efi, err := e.Info()
		if err != nil {
			continue // raced with deletion
		}
		pp := dir + propDirName + sep + name + propsExt
		if efi.IsDir() {
			pp = dir + name + sep + propDirName + sep + collectionPropsFile + propsExt
		}
		mp, err := s.resolveWithProps(ctx, prefix+name, pp, efi)
		if err != nil {
			return nil, err
		}
		members = append(members, mp)
	}
	return members, nil
}

// resolveWithProps builds one resource's info and property map from the
// property view of its database at pp: every read of a resource goes
// through here. The info is always filled, from the file alone when the
// database cannot be opened or scanned to the end; that is then the
// error, which the batched reads return (a listing with the properties
// silently missing would read as "this resource has none") and Stat and
// Get ignore.
func (s *FSStore) resolveWithProps(ctx context.Context, cp, pp string, fi fs.FileInfo) (MemberProps, error) {
	ri := ResourceInfo{
		Path:         cp,
		IsCollection: fi.IsDir(),
		ModTime:      fi.ModTime(),
		CreateTime:   fi.ModTime(),
	}
	v, err := s.view(ctx, pp)
	if !fi.IsDir() {
		s.fillDocInfo(&ri, fi, v.ctype, v.gen)
	}
	props := v.props
	if props == nil {
		props = map[xml.Name][]byte{} // no database, or an unreadable one
	}
	mp := MemberProps{Info: ri, Props: props, Checked: v.checked}
	if err != nil {
		return mp, fmt.Errorf("properties of %s: %w", cp, err)
	}
	return mp, nil
}

// view returns the property view of the database at pp, building it if
// no reader has since the database's last write. No database is an
// empty view; one that cannot be read is an error and an empty view.
func (s *FSStore) view(ctx context.Context, pp string) (propView, error) {
	v := propView{checked: true} // no database: nothing to check
	err := s.withPropsAt(ctx, pp, false, func(h *dbm.Handle) error {
		m, err := h.DB().Memo(func() (any, int64, error) { return buildPropView(h) })
		if err == nil {
			v = *m.(*propView)
		}
		return err
	})
	return v, err
}

// propView is one property database decoded for the batched reads: the
// dead properties by name, their values aliasing the database's resident
// image, the two internal keys, and whether every value is a well-formed
// fragment. It lives in the database handle's memo slot (dbm.DB.Memo),
// so it is decoded and checked once per write rather than once per
// request, and every StatWithProps and ListWithProps caller until the
// next write shares the one map. The verdict stays exact for as long as
// the view lives: the values alias an image that never changes under
// them (see the dbm package doc), and the write that would change what
// the database holds empties the memo first.
type propView struct {
	props   map[xml.Name][]byte
	ctype   string
	gen     int64
	checked bool
}

// propViewEntryBytes estimates what one view entry holds beside its
// name's bytes: a map slot for an xml.Name key and a slice value, and
// the string header of the name.
const propViewEntryBytes = 96

// buildPropView decodes the database behind h in one ForEach, puts each
// dead-property value to xmldom.WellFormedFragment until one fails, and
// reports the view's size for the handle cache's budget.
func buildPropView(h *dbm.Handle) (any, int64, error) {
	v := &propView{props: make(map[xml.Name][]byte, h.DB().Len()), checked: true}
	size := int64(0)
	err := h.ForEach(func(k, val []byte) error {
		if name, ok := parsePropKey(k); ok {
			v.props[name] = val
			v.checked = v.checked && xmldom.WellFormedFragment(val)
			size += int64(len(k)) + propViewEntryBytes
			return nil
		}
		switch string(k) {
		case string(internalKey(ikeyContentType)):
			v.ctype = string(val)
		case string(internalKey(ikeyGeneration)):
			v.gen, _ = strconv.ParseInt(string(val), 10, 64)
		}
		return nil
	})
	return v, size, err
}

// StatWithProps implements BatchReader.
func (s *FSStore) StatWithProps(ctx context.Context, p string) (ResourceInfo, map[xml.Name][]byte, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return ResourceInfo{}, nil, err
	}
	g, err := s.locks.RLock(ctx, cp)
	if err != nil {
		return ResourceInfo{}, nil, err
	}
	defer g.Release()
	mp, perr, err := s.resolve(ctx, cp)
	if err == nil {
		err = perr
	}
	if err != nil {
		return ResourceInfo{}, nil, err
	}
	return mp.Info, mp.Props, nil
}

// ListWithProps implements BatchReader: one shared lock on the
// collection, one pass per member through cached database handles.
func (s *FSStore) ListWithProps(ctx context.Context, p string) ([]MemberProps, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return nil, err
	}
	g, err := s.locks.RLock(ctx, cp)
	if err != nil {
		return nil, err
	}
	defer g.Release()
	return s.list(ctx, cp)
}

// Mkcol implements Store. The mkdir is atomic, so it writes no journal
// intent: a crash leaves the collection made or not, and either state
// is consistent.
func (s *FSStore) Mkcol(ctx context.Context, p string) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("%w: /", ErrExists)
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.mkcolLocked(cp)
}

// mkcolLocked is Mkcol's body under an already-held exclusive lock
// covering cp.
func (s *FSStore) mkcolLocked(cp string) error {
	dp, err := s.diskPath(cp)
	if err != nil {
		return err
	}
	switch err := os.Mkdir(dp, 0o755); {
	case os.IsExist(err):
		return fmt.Errorf("%w: %s", ErrExists, cp)
	case os.IsNotExist(err), errors.Is(err, syscall.ENOTDIR):
		return fmt.Errorf("%w: %s", ErrConflict, ParentPath(cp))
	case err != nil:
		return err
	}
	// The new entry is only durable once its parent directory is on disk.
	if err := syncDir(filepath.Dir(dp)); err != nil {
		fsyncErrors.Add(1)
		slog.Warn("store: directory fsync failed after mkdir; collection may not survive power loss",
			"dir", filepath.Dir(dp), "err", err)
	}
	return nil
}

// stageBufSize is the step a Put body is copied to its temp file in,
// and so the staging memory one in-flight Put holds. An 8 MiB PUT+GET
// costs davd about 22 read + 25 write syscalls at 1 MiB, 41 + 44 at
// 256 KiB and 265 + 267 with io.Copy's 32 KiB; 256 KiB and 1 MiB moved
// the same number of operations per second.
const stageBufSize = 1 << 20

var stageBufs = sync.Pool{New: func() any { b := make([]byte, stageBufSize); return &b }}

// stage copies a Put body into its temp file. A body from the network
// goes through one pooled stageBufSize buffer: *os.File's ReadFrom would
// take it, find nothing to splice from, and fall back to a 32 KiB copy,
// so the wrapper hides ReadFrom. A body that is itself a file (COPY's
// source) keeps ReadFrom, which moves it with copy_file_range and no
// buffer at all.
func stage(tmp *os.File, r io.Reader) error {
	if _, ok := r.(*os.File); ok {
		_, err := io.Copy(tmp, r)
		return err
	}
	buf := stageBufs.Get().(*[]byte)
	defer stageBufs.Put(buf)
	_, err := io.CopyBuffer(struct{ io.Writer }{tmp}, r, *buf)
	return err
}

// Put implements Store. The body is staged to a temporary file and
// renamed into place so concurrent readers never observe a torn
// document. The exclusive path lock serializes writers of one document;
// writers of different documents — even in the same collection —
// proceed in parallel.
func (s *FSStore) Put(ctx context.Context, p string, r io.Reader, contentType string) (bool, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return false, err
	}
	if cp == "/" {
		return false, fmt.Errorf("%w: cannot PUT to /", ErrIsCollection)
	}
	dp, err := s.diskPath(cp)
	if err != nil {
		return false, err
	}
	if err := s.writeGate(); err != nil {
		return false, err
	}

	g, err := s.locks.Lock(ctx, cp)
	if err != nil {
		return false, err
	}
	defer g.Release()
	return s.putLocked(ctx, cp, dp, r, contentType, true)
}

// putLocked is Put's body under an already-held exclusive lock covering
// cp (dp is cp's disk path). journaled=false skips the intent record —
// used by the copy path, whose own intent already covers the whole
// destination subtree (rolling back a copy removes every nested write,
// so per-resource intents would only double the fsync cost).
//
// Crash-consistency shape: the body is staged and fsync'd first (a
// crash there leaves only a swept-at-recovery temp file), then the
// intent — carrying the temp name, the pre-op generation, and the
// content type to keep or clear — is made durable, and only then do the
// visible steps run: rename into place, property write, generation
// bump. Recovery can therefore always classify the store as pre-op
// (temp still present → remove it) or post-op (renamed → finish the
// metadata steps), never in between.
//
// Cancellation checkpoints sit before the rename: a cancelled PUT
// removes its temp and resolves its intent as a no-op, leaving the
// pre-op document intact. After the rename the operation completes —
// the new body is already visible.
func (s *FSStore) putLocked(ctx context.Context, cp, dp string, r io.Reader, contentType string, journaled bool) (bool, error) {
	parentFI, perr := os.Stat(filepath.Dir(dp))
	if perr != nil || !parentFI.IsDir() {
		return false, fmt.Errorf("%w: %s", ErrConflict, ParentPath(cp))
	}
	fi, ferr := os.Stat(dp)
	var created bool
	switch {
	case ferr == nil:
		if fi.IsDir() {
			return false, fmt.Errorf("%w: %s", ErrIsCollection, cp)
		}
	case os.IsNotExist(ferr):
		created = true
	default:
		// A transient stat failure on an existing document must not be
		// mistaken for creation: reporting 201 would be wrong, and
		// skipping the generation bump would let the overwrite reuse the
		// replaced document's ETag.
		return false, ferr
	}
	pp := s.memberPropsPath(dp, cp)
	var prev propView
	if !created {
		// The generation the overwrite bumps, and whether a content type
		// is persisted that this write may have to remove.
		v, err := s.view(ctx, pp)
		if err != nil {
			return false, fmt.Errorf("properties of %s: %w", cp, err)
		}
		prev = v
	}
	// An explicit type the extension implies only clears a kept one:
	// where none is kept, the write has nothing to do for it.
	ctype := contentType
	if ctype == inferContentType(cp) && prev.ctype == "" {
		ctype = ""
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.step("put.start")

	tmp, err := os.CreateTemp(filepath.Dir(dp), ".put-*")
	if err != nil {
		return false, err
	}
	tmpName := tmp.Name()
	if err := stage(tmp, r); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return false, err
	}
	// Flush the staged bytes before the rename: without it a crash
	// after the rename can leave the final name pointing at a file
	// whose contents never reached disk — torn data under the atomic
	// promise this function makes.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return false, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return false, err
	}
	s.step("put.staged")
	if err := ctx.Err(); err != nil {
		// Abandoned after staging: only the temp exists; remove it.
		os.Remove(tmpName)
		return false, err
	}

	var id uint64
	if journaled {
		id, err = s.beginIntent(journal.Record{
			Op: journal.OpPut, Path: cp, Tmp: filepath.Base(tmpName),
			Created: created, Gen: prev.gen, CType: ctype,
		})
		if err != nil {
			os.Remove(tmpName)
			return false, err
		}
	}
	s.step("put.intent")
	if err := ctx.Err(); err != nil {
		// Abandoned between intent and rename: remove the temp and
		// resolve the intent — exactly the rollback recovery would
		// perform after a crash here, done inline.
		os.Remove(tmpName)
		s.commitIntent(id)
		return false, err
	}

	if err := os.Rename(tmpName, dp); err != nil {
		os.Remove(tmpName)
		s.commitIntent(id)
		return false, err
	}
	s.step("put.renamed")
	// The rename itself is only durable once the parent directory's
	// entry is on disk.
	if err := syncDir(filepath.Dir(dp)); err != nil {
		fsyncErrors.Add(1)
		slog.Warn("store: directory fsync failed after rename; entry may not survive power loss",
			"dir", filepath.Dir(dp), "err", err)
	}
	// From here on the new body is visible: finish the metadata steps
	// regardless of cancellation (context.Background keeps a done ctx
	// from failing the handle acquisition mid-metadata).
	bg := context.Background()
	if err := s.persistContentType(bg, cp, pp, ctype); err != nil {
		return created, err
	}
	s.step("put.props")
	if !created {
		// The exclusive path lock keeps the view's generation current.
		if err := s.withPropsAt(bg, pp, true, func(h *dbm.Handle) error {
			return h.Put(internalKey(ikeyGeneration), []byte(strconv.FormatInt(prev.gen+1, 10)))
		}); err != nil {
			return created, err
		}
	}
	s.step("put.gen")
	s.commitIntent(id)
	return created, nil
}

// persistContentType records ctype, a Put's explicit content type, in
// the database pp of document cp. Only a type the extension does not
// imply is kept (mod_dav materializes property databases lazily; the
// disk-overhead experiment depends on it), and one it does imply removes
// any kept earlier. An empty ctype keeps what is there.
func (s *FSStore) persistContentType(ctx context.Context, cp, pp, ctype string) error {
	key := internalKey(ikeyContentType)
	switch {
	case ctype == "":
		return nil
	case ctype != inferContentType(cp):
		return s.withPropsAt(ctx, pp, true, func(h *dbm.Handle) error { return h.Put(key, []byte(ctype)) })
	}
	return s.withPropsAt(ctx, pp, false, func(h *dbm.Handle) error {
		_, err := h.Delete(key)
		return err
	})
}

// syncDir fsyncs a directory so a just-renamed entry survives a
// crash. The error is returned so callers can decide: the write
// itself already succeeded, so callers demote the failure to a WARN
// log plus the dav_fsync_errors_total counter rather than failing the
// operation — but they no longer silently drop it. (Some filesystems
// and non-POSIX platforms refuse to open or sync directories.)
func syncDir(dir string) error {
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

// inferContentType derives a document's content type from its
// extension, as mod_dav-era servers did.
func inferContentType(cp string) string {
	if ct := mime.TypeByExtension(path.Ext(cp)); ct != "" {
		return ct
	}
	return "application/octet-stream"
}

// Get implements Store.
func (s *FSStore) Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	g, err := s.locks.RLock(ctx, cp)
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	defer g.Release()
	mp, _, err := s.resolve(ctx, cp) // an unreadable database is ignored, as in Stat
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	ri := mp.Info
	if ri.IsCollection {
		return nil, ResourceInfo{}, fmt.Errorf("%w: %s", ErrIsCollection, ri.Path)
	}
	dp, err := s.diskPath(ri.Path)
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	f, err := os.Open(dp)
	if err != nil {
		return nil, ResourceInfo{}, mapFSErr(err, ri.Path)
	}
	return f, ri, nil
}

// Delete implements Store. The exclusive lock on cp covers the whole
// subtree (descendant operations would need an intent lock on cp), so
// no per-descendant locking is necessary.
//
// Crash-consistency shape: deletes always roll forward. The intent is
// durable before the first byte is removed, so a crash between the
// content remove and the sidecar remove (or mid-RemoveAll) is finished
// by recovery — a delete can end half-done on disk but never half-done
// after Recover. The cancellation checkpoint sits before the first
// removal: once removal starts, the delete completes.
func (s *FSStore) Delete(ctx context.Context, p string) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("%w: cannot delete /", ErrBadPath)
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	dp, err := s.diskPath(cp)
	if err != nil {
		return err
	}
	fi, err := os.Stat(dp)
	if err != nil {
		return mapFSErr(err, cp)
	}
	s.step("delete.start")
	id, err := s.beginIntent(journal.Record{
		Op: journal.OpDelete, Path: cp, IsDir: fi.IsDir(),
	})
	if err != nil {
		return err
	}
	s.step("delete.intent")
	if err := ctx.Err(); err != nil {
		// Nothing was mutated: resolve the intent as a no-op.
		s.commitIntent(id)
		return err
	}
	if fi.IsDir() {
		// Directory properties live inside the directory; one
		// RemoveAll covers body, members, and all metadata. Every
		// cached database under the subtree is orphaned by it. A
		// failure can leave a partially removed tree, so the intent
		// stays open for recovery to finish the job.
		if err := os.RemoveAll(dp); err != nil {
			return err
		}
		s.step("delete.content")
		s.cache.InvalidatePrefix(dp)
		s.commitIntent(id)
		return nil
	}
	if err := os.Remove(dp); err != nil {
		// Nothing was mutated: resolve the intent as a no-op.
		s.commitIntent(id)
		return mapFSErr(err, cp)
	}
	s.step("delete.content")
	// Drop the member's property database, if any. On failure the
	// intent stays open: the content is gone, so recovery must finish
	// removing the now-orphaned sidecar.
	pp := s.memberPropsPath(dp, cp)
	if err := os.Remove(pp); err != nil && !os.IsNotExist(err) {
		s.cache.Invalidate(pp)
		return err
	}
	s.step("delete.props")
	s.cache.Invalidate(pp)
	s.commitIntent(id)
	return nil
}

// Rename implements Renamer: an atomic filesystem rename
// plus relocation of the member property database. Source and
// destination subtrees are locked exclusively in one ordered
// acquisition, so the move is atomic with respect to every other store
// operation and cannot deadlock against a crossing move.
func (s *FSStore) Rename(ctx context.Context, src, dst string) error {
	csrc, err := CleanPath(src)
	if err != nil {
		return err
	}
	cdst, err := CleanPath(dst)
	if err != nil {
		return err
	}
	if csrc == "/" || cdst == "/" || csrc == cdst ||
		IsAncestor(csrc, cdst) || IsAncestor(cdst, csrc) {
		return fmt.Errorf("%w: rename %q -> %q", ErrBadPath, src, dst)
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Acquire(ctx,
		pathlock.Req{Path: csrc, Mode: pathlock.Exclusive},
		pathlock.Req{Path: cdst, Mode: pathlock.Exclusive})
	if err != nil {
		return err
	}
	defer g.Release()

	sp, err := s.diskPath(csrc)
	if err != nil {
		return err
	}
	tp, err := s.diskPath(cdst)
	if err != nil {
		return err
	}
	sfi, err := os.Stat(sp)
	if err != nil {
		return mapFSErr(err, csrc)
	}
	if _, err := os.Stat(tp); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, cdst)
	}
	if pfi, err := os.Stat(filepath.Dir(tp)); err != nil || !pfi.IsDir() {
		return fmt.Errorf("%w: %s", ErrConflict, ParentPath(cdst))
	}
	// Crash-consistency shape: the decisive step is the content rename.
	// Recovery sees the source still present → nothing happened (roll
	// back to a no-op); source gone → roll forward by finishing the
	// sidecar relocation. The intent must be durable before the rename
	// so the torn middle (content moved, properties not) is always
	// attributable. The cancellation checkpoint sits between the two:
	// a cancelled MOVE that has not renamed yet is a no-op.
	s.step("rename.start")
	id, err := s.beginIntent(journal.Record{
		Op: journal.OpRename, Path: csrc, Dst: cdst, IsDir: sfi.IsDir(),
	})
	if err != nil {
		return err
	}
	s.step("rename.intent")
	if err := ctx.Err(); err != nil {
		// Nothing was mutated: resolve the intent as a no-op.
		s.commitIntent(id)
		return err
	}
	if err := os.Rename(sp, tp); err != nil {
		// Nothing was mutated: resolve the intent as a no-op.
		s.commitIntent(id)
		return err
	}
	s.step("rename.renamed")
	if sfi.IsDir() {
		// Every cached database under the old directory now points at
		// a renamed-away file; drop them so the new paths reopen.
		s.cache.InvalidatePrefix(sp)
		s.commitIntent(id)
		return nil
	}
	// Move the member property database alongside. On failure the
	// intent stays open: the content already moved, so recovery must
	// finish relocating the sidecar.
	spp := s.memberPropsPath(sp, csrc)
	if _, err := os.Stat(spp); err == nil {
		tpp := s.memberPropsPath(tp, cdst)
		if err := os.MkdirAll(filepath.Dir(tpp), 0o755); err != nil {
			return err
		}
		if err := os.Rename(spp, tpp); err != nil {
			return err
		}
	}
	s.step("rename.props")
	s.cache.Invalidate(spp)
	s.commitIntent(id)
	return nil
}

// CopyTreeAtomic implements TreeCopier: the whole copy runs under one
// multi-path acquisition — Shared on the source subtree, Exclusive on
// the destination — so writers cannot mutate the source mid-copy and no
// reader observes a partially built destination tree.
func (s *FSStore) CopyTreeAtomic(ctx context.Context, src, dst string, opts CopyOptions) error {
	csrc, err := CleanPath(src)
	if err != nil {
		return err
	}
	cdst, err := CleanPath(dst)
	if err != nil {
		return err
	}
	if csrc == cdst || IsAncestor(csrc, cdst) {
		return fmt.Errorf("%w: cannot copy %q into itself", ErrBadPath, csrc)
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Acquire(ctx,
		pathlock.Req{Path: csrc, Mode: pathlock.Shared},
		pathlock.Req{Path: cdst, Mode: pathlock.Exclusive})
	if err != nil {
		return err
	}
	defer g.Release()
	root, perr, err := s.resolve(ctx, csrc)
	if err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	dp, err := s.diskPath(cdst)
	if err != nil {
		return err
	}
	if _, err := os.Lstat(dp); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, cdst)
	}
	// Crash-consistency shape: one intent covers the whole destination
	// subtree, which did not exist (checked above), so it holds nothing
	// but what the copy builds. A crash or error mid-copy rolls back by
	// removing whatever was built — the nested puts are deliberately
	// unjournaled for that reason. Cancellation takes the same rollback:
	// the per-resource walk checkpoints ctx, and a mid-copy abort removes
	// the partial destination inline, leaving a no-op behind a resolved
	// intent.
	s.step("copy.start")
	id, err := s.beginIntent(journal.Record{
		Op: journal.OpCopy, Path: csrc, Dst: cdst, Recurse: opts.Recurse,
	})
	if err != nil {
		return err
	}
	s.step("copy.intent")
	if err := s.copyTreeLocked(ctx, root, cdst, opts.Recurse); err != nil {
		// Roll back inline so a failed COPY is a no-op immediately
		// rather than at the next recovery.
		s.removeCopyDebris(cdst)
		s.commitIntent(id)
		return err
	}
	s.step("copy.done")
	s.commitIntent(id)
	return nil
}

// removeCopyDebris deletes a partially built copy destination — the
// resource tree and, for a document, its property sidecar — and drops
// any cached handles under it. Shared by the inline rollback above and
// crash recovery. Caller holds an exclusive lock covering cdst (or is
// single-threaded recovery).
func (s *FSStore) removeCopyDebris(cdst string) {
	dp, err := s.diskPath(cdst)
	if err != nil {
		return
	}
	os.RemoveAll(dp)
	pp := s.memberPropsPath(dp, cdst)
	os.Remove(pp)
	s.cache.Invalidate(pp)
	s.cache.InvalidatePrefix(dp)
}

// copyTreeLocked recursively copies src to cdst under the already-held
// subtree locks, checkpointing ctx before each resource. Each member
// comes with its info and properties from its collection's listing.
func (s *FSStore) copyTreeLocked(ctx context.Context, src MemberProps, cdst string, recurse bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.copyResourceLocked(ctx, src, cdst); err != nil {
		return err
	}
	if !src.Info.IsCollection || !recurse {
		return nil
	}
	members, err := s.list(ctx, src.Info.Path)
	if err != nil {
		return err
	}
	for _, m := range members {
		rel := strings.TrimPrefix(m.Info.Path, src.Info.Path)
		if err := s.copyTreeLocked(ctx, m, cdst+rel, recurse); err != nil {
			return err
		}
	}
	return nil
}

// copyResourceLocked copies one resource (body + properties) under the
// already-held subtree locks.
func (s *FSStore) copyResourceLocked(ctx context.Context, src MemberProps, cdst string) error {
	s.step("copy.resource")
	ri := src.Info
	if ri.IsCollection {
		if err := s.mkcolLocked(cdst); err != nil {
			return err
		}
	} else {
		sp, err := s.diskPath(ri.Path)
		if err != nil {
			return err
		}
		f, err := os.Open(sp)
		if err != nil {
			return mapFSErr(err, ri.Path)
		}
		dp, err := s.diskPath(cdst)
		if err != nil {
			f.Close()
			return err
		}
		_, err = s.putLocked(ctx, cdst, dp, f, ri.ContentType, false)
		f.Close()
		if err != nil {
			return err
		}
	}
	names := slices.DeleteFunc(sortedPropNames(src.Props), func(n xml.Name) bool { return n.Space == VersioningNS })
	if len(names) == 0 {
		return nil
	}
	return s.withProps(ctx, cdst, ri.IsCollection, true, func(h *dbm.Handle) error {
		for _, n := range names {
			if err := h.Put(propKey(n), src.Props[n]); err != nil {
				return err
			}
		}
		return nil
	})
}

// PropPut implements Store.
func (s *FSStore) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	isDir, err := s.statKind(cp)
	if err != nil {
		return err
	}
	return s.withProps(ctx, cp, isDir, true, func(h *dbm.Handle) error {
		return h.Put(propKey(name), value)
	})
}

// PropGet retrieves one dead property value.
//
// It is not part of Store: outside the tests, the benchmark's spanStore
// is its only caller, and ROADMAP item 1(a) removes it.
func (s *FSStore) PropGet(ctx context.Context, p string, name xml.Name) ([]byte, bool, error) {
	_, props, err := s.StatWithProps(ctx, p)
	v, ok := props[name]
	return v, ok, err
}

// PropDelete implements Store.
func (s *FSStore) PropDelete(ctx context.Context, p string, name xml.Name) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	g, err := s.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	isDir, err := s.statKind(cp)
	if err != nil {
		return err
	}
	return s.withProps(ctx, cp, isDir, false, func(h *dbm.Handle) error {
		_, err := h.Delete(propKey(name))
		return err
	})
}

// PropNames lists the dead property names on the resource.
//
// It is not part of Store: outside the tests, the benchmark's spanStore
// is its only caller, and ROADMAP item 1(a) removes it.
func (s *FSStore) PropNames(ctx context.Context, p string) ([]xml.Name, error) {
	_, props, err := s.StatWithProps(ctx, p)
	if err != nil {
		return nil, err
	}
	return sortedPropNames(props), nil
}

// PropAll returns every dead property on the resource, in a map of
// the caller's own.
//
// It is not part of Store: outside the tests, the benchmark's spanStore
// is its only caller, and ROADMAP item 1(a) removes it.
func (s *FSStore) PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error) {
	_, props, err := s.StatWithProps(ctx, p)
	if err != nil {
		return nil, err
	}
	return maps.Clone(props), nil
}

// DiskUsage sums the sizes of all regular files under dir — used by
// the migration experiment to compare storage footprints.
func DiskUsage(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
