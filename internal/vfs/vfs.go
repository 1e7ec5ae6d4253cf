// Package vfs is the namespace substrate of the help reproduction: an
// in-memory hierarchical file system with Plan 9-style bind operations and
// synthetic (device) files.
//
// The original help lives in Plan 9, where "the standard currency" is
// files and file servers: help itself is a file server, tools are plain
// files in directories, and the session's whole world — source trees,
// mailboxes, /bin — is a composed namespace. This package reproduces the
// parts of that model help exercises:
//
//   - a rooted tree of directories and regular files,
//   - Bind with replace/before/after flags building union directories,
//   - synthetic files backed by a Device, used by helpfs to expose
//     /mnt/help/N/{tag,body,ctl,bodyapp} exactly as the paper describes,
//   - the usual operations: open, create, read, write, stat, readdir,
//     remove, plus glob expansion for the shell,
//   - ReadAt, a range read into a buffer the caller owns and reuses: the
//     paged text engine, grep's chunk scan and the wire server's
//     readahead walk a large file through it without a copy per read.
//
// Paths are slash-separated and absolute ("/usr/rob/src/help").
//
// Concurrency: an FS returned by New is an unlocked view — safe from one
// goroutine, or from many if the caller holds its own lock around every
// operation. Serialized(lk) returns a second view of the same namespace
// that takes lk around every operation, including device handler
// invocations; help hands that view to command goroutines and remote
// servers while the event loop keeps using the raw view under the same
// lock.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Errors returned by namespace operations. They are wrapped with the
// offending path; test with errors.Is.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrPerm     = errors.New("permission denied")
	ErrBadMode  = errors.New("bad open mode")
	// ErrBusy is a transient refusal: the operation was rejected by a
	// resource budget (admission control, memory, procs, waiters), not
	// because it is invalid. Callers should back off and retry; a
	// BusyError in the chain may carry the server's retry-after hint.
	ErrBusy = errors.New("resource temporarily unavailable")
)

// BusyError is a typed transient refusal carrying the refusing budget's
// retry-after hint. It unwraps to ErrBusy so errors.Is(err, ErrBusy)
// works everywhere, and exposes RetryAfter for transports that forward
// the hint to clients.
type BusyError struct {
	Msg   string        // which budget refused, human-readable
	After time.Duration // suggested wait before retrying (0: none)
}

func (e *BusyError) Error() string {
	if e.Msg == "" {
		return ErrBusy.Error()
	}
	return e.Msg + ": " + ErrBusy.Error()
}

func (e *BusyError) Unwrap() error { return ErrBusy }

// RetryAfter reports the refusing budget's suggested wait.
func (e *BusyError) RetryAfter() time.Duration { return e.After }

// RetryAfter extracts a retry-after hint from anywhere in err's chain.
// The second result reports whether a hint was present.
func RetryAfter(err error) (time.Duration, bool) {
	var h interface{ RetryAfter() time.Duration }
	if errors.As(err, &h) {
		if d := h.RetryAfter(); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// Open modes.
const (
	OREAD   = 0      // open for reading
	OWRITE  = 1      // open for writing
	ORDWR   = 2      // open for reading and writing
	OTRUNC  = 1 << 4 // truncate on open
	OAPPEND = 1 << 5 // all writes append
)

// Bind flags, mirroring Plan 9's MREPL, MBEFORE, MAFTER.
type BindFlag int

const (
	Replace BindFlag = iota // the new directory replaces the old
	Before                  // the new directory is searched first
	After                   // the new directory is searched last
)

// Info describes a file, as returned by Stat and ReadDir.
type Info struct {
	Name  string // final path element
	IsDir bool
	Size  int64 // length in bytes; 0 for directories and devices
	// ModTime is a logical modification time: the namespace keeps a
	// monotonic counter bumped on every mutation, which is all tools like
	// mk need to order builds. Devices and directories report 0.
	ModTime int64
	// Gen is the file's edit generation: a per-file monotonic counter
	// that moves exactly when the contents change. Regular files derive
	// it from their mtime stamp; devices report it when their backing
	// implements GenDevice (help windows expose text.Buffer.Gen this
	// way). Zero means "no generation": the file cannot be cached by
	// generation. srvnet piggybacks Gen on wire replies so remote
	// clients can cache reads and skip round trips.
	Gen uint64
}

// Device is the backing implementation of a synthetic file. Each Open of
// the file gets its own handle, so devices can carry per-open state (the
// way reading /mnt/help/new/ctl returns the name of the window that this
// particular open created).
type Device interface {
	OpenDevice(mode int) (DeviceFile, error)
}

// DeviceFile is one open handle on a device.
type DeviceFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// GenDevice is an optional Device extension: a device that can report
// an edit generation for its contents (a counter that moves exactly
// when the contents change). Gen is called under the same lock as the
// file operation that triggered it, so implementations may touch the
// state their reads touch. A device that does not implement GenDevice
// reports generation 0, meaning "uncacheable".
type GenDevice interface {
	Gen() uint64
}

// WaitDevice is an optional Device extension for event-stream files: a
// blocking, cancelable, resumable read mode. Unlike every other device
// op, ReadWait is called WITHOUT the namespace lock held — a read that
// parks under the lock would stall the whole session — so
// implementations must synchronize on their own state only (the notify
// bus does). since is the last sequence number the caller has seen (0
// for "from now"); the call blocks until events past it exist, stop
// closes, or timeout (if > 0) expires, and returns the event bytes plus
// the sequence number to resume from. A timeout returns empty data and
// no error: the normal empty long poll. A wrapper device that cannot
// forward the wait returns ErrNotWaitable and the caller falls back to
// a plain snapshot read.
type WaitDevice interface {
	ReadWait(since uint64, stop <-chan struct{}, timeout time.Duration) (data []byte, next uint64, err error)
}

// ErrNotWaitable reports that a device reached through WaitDevice
// cannot actually block; FS.ReadWait degrades to ReadFileGen on it.
var ErrNotWaitable = errors.New("device read cannot block")

// node is one entry in the real (pre-bind) tree.
type node struct {
	name     string
	dir      bool
	data     []byte
	children map[string]*node
	device   Device
	mtime    int64
	// sealed marks the node immutable. Sealed subtrees may be shared
	// between namespaces (see Graft) whose views are serialized by
	// different locks; immutability is what makes that safe.
	sealed bool
}

// fsState is the namespace itself, shared by every view of it. Keeping
// the mutable fields behind one pointer is what makes views cheap and
// coherent: a bind or clock tick through one view is visible through all.
type fsState struct {
	root *node
	// binds maps a canonical mountpoint path to the ordered union of
	// source paths searched there.
	binds map[string][]string
	// clock is the logical time source for modification stamps.
	clock int64
	// lookups and bindsCtr count namespace traffic when an obs registry
	// is installed; nil counters are no-ops, keeping lookup alloc-free.
	lookups  *obs.Counter
	bindsCtr *obs.Counter
	// onMutate, when set, observes successful non-device mutations;
	// see SetOnMutate in dump.go.
	onMutate func(kind MutKind, p string, data []byte, aux string, flag int)
}

// FS is a view onto an in-memory file system with a bind table. The view
// from New is unlocked; Serialized derives a locking view of the same
// state.
type FS struct {
	st *fsState
	// lk, when non-nil, is held around every operation of this view.
	lk sync.Locker
}

func (fs *FS) lock() {
	if fs.lk != nil {
		fs.lk.Lock()
	}
}

func (fs *FS) unlock() {
	if fs.lk != nil {
		fs.lk.Unlock()
	}
}

// Serialized returns a view of the same namespace whose every operation
// — reads, writes, opens, and the device handler calls they trigger —
// runs while holding lk. State is fully shared with fs: a mutation
// through either view is immediately visible through the other.
func (fs *FS) Serialized(lk sync.Locker) *FS {
	return &FS{st: fs.st, lk: lk}
}

// EnsureSerialized returns fs itself when its operations already run
// under a lock, and a Serialized view over lk when fs is bare. Callers
// that need mutual exclusion with the namespace's other users must not
// blindly re-wrap: replacing an existing lock would silently drop the
// serialization the namespace was exported with.
func (fs *FS) EnsureSerialized(lk sync.Locker) *FS {
	if fs.lk != nil {
		return fs
	}
	return fs.Serialized(lk)
}

// SetObs installs (or, with nil, removes) observability counters for
// the namespace: vfs.lookup, the path walk under every operation, and
// vfs.bind.
func (fs *FS) SetObs(r *obs.Registry) {
	fs.lock()
	defer fs.unlock()
	if r == nil {
		fs.st.lookups, fs.st.bindsCtr = nil, nil
		return
	}
	fs.st.lookups = r.Counter("vfs.lookup")
	fs.st.bindsCtr = r.Counter("vfs.bind")
}

// tick advances and returns the logical clock.
func (fs *FS) tick() int64 {
	fs.st.clock++
	return fs.st.clock
}

// Now returns the current logical time without advancing it.
func (fs *FS) Now() int64 {
	fs.lock()
	defer fs.unlock()
	return fs.st.clock
}

// New returns an empty file system containing only the root directory.
func New() *FS {
	return &FS{st: &fsState{
		root:  &node{name: "/", dir: true, children: map[string]*node{}},
		binds: map[string][]string{},
	}}
}

// Clean canonicalizes p to an absolute, cleaned path.
func Clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// split breaks a cleaned absolute path into elements; "/" yields nil.
func split(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// lookup finds the node at real path p, without bind translation. The
// path is walked segment by segment in place: this sits under every file
// operation, so it must not allocate.
func (fs *FS) lookup(p string) (*node, error) {
	fs.st.lookups.Inc()
	p = Clean(p)
	n := fs.st.root
	for i := 1; i < len(p); {
		end := len(p)
		if j := strings.IndexByte(p[i:], '/'); j >= 0 {
			end = i + j
		}
		elem := p[i:end]
		i = end + 1
		if !n.dir {
			return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		child, ok := n.children[elem]
		if !ok {
			return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		n = child
	}
	return n, nil
}

// resolve translates p through the bind table, returning the ordered,
// deduplicated list of real candidate paths to try. The longest bound
// prefix wins; resolution chains through nested binds up to a fixed depth.
// A union member equal to the mountpoint itself (the common before/after
// case) terminates rather than re-expanding.
func (fs *FS) resolve(p string) []string {
	var out []string
	fs.resolveInto(Clean(p), 0, &out)
	return out
}

// appendUnique adds p to out unless already present. The candidate list is
// tiny (bounded by union fan-out times bind depth), so a linear scan
// replaces the dedup map the resolver used to allocate per call.
func appendUnique(out *[]string, p string) {
	for _, q := range *out {
		if q == p {
			return
		}
	}
	*out = append(*out, p)
}

func (fs *FS) resolveInto(p string, depth int, out *[]string) {
	prefix, sources := fs.longestBind(p)
	if prefix == "" || depth >= 8 {
		appendUnique(out, p)
		return
	}
	rest := strings.TrimPrefix(p, prefix)
	for _, src := range sources {
		np := Clean(src + rest)
		if np == p {
			appendUnique(out, np)
			continue
		}
		fs.resolveInto(np, depth+1, out)
	}
}

// longestBind finds the longest mountpoint that is a prefix of p.
func (fs *FS) longestBind(p string) (string, []string) {
	best := ""
	for mp := range fs.st.binds {
		if mp == p || strings.HasPrefix(p, mp+"/") || (mp == "/" && p != "/") {
			if len(mp) > len(best) {
				best = mp
			}
		}
	}
	if best == "" {
		return "", nil
	}
	// Guard against the degenerate self-bind producing no progress.
	srcs := fs.st.binds[best]
	if len(srcs) == 1 && srcs[0] == best {
		return "", nil
	}
	return best, srcs
}

// find locates the first existing node for path p after bind translation.
func (fs *FS) find(p string) (*node, error) {
	p = Clean(p)
	if prefix, _ := fs.longestBind(p); prefix == "" {
		// No bind covers p: skip building the candidate list.
		return fs.lookup(p)
	}
	var firstErr error
	for _, c := range fs.resolve(p) {
		n, err := fs.lookup(c)
		if err == nil {
			return n, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	return nil, firstErr
}

// Bind attaches the directory (or file) at src to mountpoint mp. With
// Replace, lookups of mp resolve only in src. With Before/After, src is
// unioned with the existing resolution order.
func (fs *FS) Bind(src, mp string, flag BindFlag) error {
	fs.lock()
	defer fs.unlock()
	return fs.bind(src, mp, flag, true)
}

// ReplayBind is Bind for a bind that was accepted once already, as a
// journal replays it. It does not look at the source again: since it
// was bound the source may have been removed, or it may resolve only
// through a bind that the replay restores later.
func (fs *FS) ReplayBind(src, mp string, flag BindFlag) error {
	fs.lock()
	defer fs.unlock()
	return fs.bind(src, mp, flag, false)
}

func (fs *FS) bind(src, mp string, flag BindFlag, check bool) error {
	fs.st.bindsCtr.Inc()
	src, mp = Clean(src), Clean(mp)
	if check {
		if _, err := fs.find(src); err != nil {
			return fmt.Errorf("bind %s: %w", src, err)
		}
	}
	switch flag {
	case Replace:
		fs.st.binds[mp] = []string{src}
	case Before:
		cur := fs.st.binds[mp]
		if len(cur) == 0 {
			cur = []string{mp}
		}
		fs.st.binds[mp] = append([]string{src}, cur...)
	case After:
		cur := fs.st.binds[mp]
		if len(cur) == 0 {
			cur = []string{mp}
		}
		fs.st.binds[mp] = append(cur, src)
	default:
		return fmt.Errorf("bind: bad flag %d", flag)
	}
	fs.mutated(MutBind, src, nil, mp, int(flag))
	return nil
}

// Unbind removes all binds at mountpoint mp.
func (fs *FS) Unbind(mp string) {
	fs.lock()
	defer fs.unlock()
	delete(fs.st.binds, Clean(mp))
}

// sealErr is the uniform refusal for mutations under a seal: a wrapped
// ErrPerm so callers that already degrade on permission errors (the
// shell, the wire protocol) degrade visibly here too.
func sealErr(p string) error {
	return fmt.Errorf("%s: sealed: %w", p, ErrPerm)
}

// Seal marks the subtree rooted at p immutable: every write, create,
// truncate, append, remove, or device registration under it fails with
// a permission error. Sealing is how a namespace is prepared for
// sharing — a sealed subtree can be grafted into many namespaces and
// read concurrently without any lock coordination between them.
// Sealing is permanent for the life of the tree.
func (fs *FS) Seal(p string) error {
	fs.lock()
	defer fs.unlock()
	n, err := fs.find(p)
	if err != nil {
		return err
	}
	sealTree(n)
	return nil
}

func sealTree(n *node) {
	n.sealed = true
	for _, c := range n.children {
		sealTree(c)
	}
}

// Graft mounts the sealed subtree at srcPath in src's namespace at
// mountpoint mp in this one, by reference: no copy is made, the two
// namespaces share the nodes. The source subtree must already be
// sealed — sharing mutable nodes between namespaces serialized by
// different locks would be a data race. The mountpoint's parent is
// created as needed; an existing file at mp is an error.
func (fs *FS) Graft(mp string, src *FS, srcPath string) error {
	fs.lock()
	defer fs.unlock()
	srcN, err := src.lookup(Clean(srcPath))
	if err != nil {
		return fmt.Errorf("graft %s: %w", srcPath, err)
	}
	if !srcN.sealed {
		return fmt.Errorf("graft %s: source not sealed: %w", srcPath, ErrPerm)
	}
	mp = Clean(mp)
	if err := fs.mkdirAll(path.Dir(mp)); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(mp)
	if err != nil {
		return err
	}
	if parent.sealed {
		return sealErr(mp)
	}
	if _, ok := parent.children[base]; ok {
		return fmt.Errorf("graft %s: %w", mp, ErrExist)
	}
	parent.children[base] = srcN
	return nil
}

// MkdirAll creates directory p and any missing parents. It is a no-op if p
// already exists as a directory.
func (fs *FS) MkdirAll(p string) error {
	fs.lock()
	defer fs.unlock()
	return fs.mkdirAll(p)
}

func (fs *FS) mkdirAll(p string) error {
	n := fs.st.root
	made := false
	for _, elem := range split(p) {
		child, ok := n.children[elem]
		if !ok {
			if n.sealed {
				return sealErr(p)
			}
			child = &node{name: elem, dir: true, children: map[string]*node{}}
			n.children[elem] = child
			made = true
		} else if !child.dir {
			return fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		n = child
	}
	if made {
		fs.mutated(MutMkdir, p, nil, "", 0)
	}
	return nil
}

// parentOf returns the directory node that should contain the final
// element of p, creating nothing. Bind translation applies: creation goes
// to the first union member whose parent exists.
func (fs *FS) parentOf(p string) (*node, string, error) {
	p = Clean(p)
	if p == "/" {
		return nil, "", fmt.Errorf("/: %w", ErrExist)
	}
	var firstErr error
	for _, c := range fs.resolve(p) {
		dir, base := path.Split(c)
		n, err := fs.lookup(Clean(dir))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !n.dir {
			return nil, "", fmt.Errorf("%s: %w", dir, ErrNotDir)
		}
		return n, base, nil
	}
	return nil, "", firstErr
}

// WriteFile creates or truncates the regular file at p with data.
func (fs *FS) WriteFile(p string, data []byte) error {
	fs.lock()
	defer fs.unlock()
	return fs.writeFile(p, data)
}

func (fs *FS) writeFile(p string, data []byte) error {
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	child, ok := parent.children[base]
	if ok {
		if child.dir {
			return fmt.Errorf("%s: %w", p, ErrIsDir)
		}
		if child.sealed {
			return sealErr(p)
		}
		if child.device != nil {
			return fs.writeDevice(child, data)
		}
		child.data = append(child.data[:0], data...)
		child.mtime = fs.tick()
		fs.mutated(MutWrite, p, data, "", 0)
		return nil
	}
	if parent.sealed {
		return sealErr(p)
	}
	parent.children[base] = &node{name: base, data: append([]byte(nil), data...), mtime: fs.tick()}
	fs.mutated(MutWrite, p, data, "", 0)
	return nil
}

func (fs *FS) writeDevice(n *node, data []byte) error {
	h, err := n.device.OpenDevice(OWRITE | OTRUNC)
	if err != nil {
		return err
	}
	_, werr := h.WriteAt(data, 0)
	// Device writes commit at Close (helpfs applies buffered writes
	// there, after its admission checks), so a dropped Close error
	// would silently discard a refused write.
	cerr := h.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// genOf reports n's edit generation: the per-file mtime stamp for
// regular files, the device's own counter for GenDevice-backed
// synthetic files, 0 (uncacheable) for directories and plain devices.
func genOf(n *node) uint64 {
	if n.dir {
		return 0
	}
	if n.device != nil {
		if gd, ok := n.device.(GenDevice); ok {
			return gd.Gen()
		}
		return 0
	}
	return uint64(n.mtime)
}

// Gen reports the edit generation of the file at p, 0 if the path does
// not resolve or the file carries no generation.
func (fs *FS) Gen(p string) uint64 {
	fs.lock()
	defer fs.unlock()
	n, err := fs.find(p)
	if err != nil {
		return 0
	}
	return genOf(n)
}

// ReadFile returns the full contents of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.lock()
	defer fs.unlock()
	data, _, err := fs.readFileGen(p)
	return data, err
}

// ReadFileGen returns the contents of the file at p together with its
// edit generation, observed atomically under the namespace lock (a gen
// of 0 means the file carries none). One lookup serves both, which is
// what the wire server's gen piggybacking rides on.
func (fs *FS) ReadFileGen(p string) ([]byte, uint64, error) {
	fs.lock()
	defer fs.unlock()
	return fs.readFileGen(p)
}

func (fs *FS) readFileGen(p string) ([]byte, uint64, error) {
	n, err := fs.find(p)
	if err != nil {
		return nil, 0, err
	}
	if n.dir {
		return nil, 0, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	gen := genOf(n)
	if n.device != nil {
		data, err := fs.readDevice(n)
		return data, gen, err
	}
	return append([]byte(nil), n.data...), gen, nil
}

// ReadAt copies bytes of the file at p from byte offset off into b and
// returns how many it copied with the file's generation, both observed
// under the view's lock. A short n means the read reached end of file.
//
// b belongs to the caller, so a reader that reuses one buffer can walk a
// gigabyte file without allocating: this is the page-in path for paged
// text buffers, grep's chunk scan and the wire server's readahead. A
// device opens one handle and reads at off, so a device that supports
// random access serves the range directly; a handle that ignores the
// offset still behaves, because the read loop fills b from off onward.
func (fs *FS) ReadAt(p string, b []byte, off int64) (n int, gen uint64, err error) {
	off = max(off, 0)
	fs.lock()
	defer fs.unlock()
	nd, err := fs.find(p)
	if err != nil {
		return 0, 0, err
	}
	if nd.dir {
		return 0, 0, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	gen = genOf(nd)
	if nd.device == nil {
		if off < int64(len(nd.data)) {
			n = copy(b, nd.data[off:])
		}
		return n, gen, nil
	}
	h, err := nd.device.OpenDevice(OREAD)
	if err != nil {
		return 0, gen, err
	}
	defer h.Close()
	for n < len(b) {
		k, err := h.ReadAt(b[n:], off+int64(n))
		n += k
		if err == io.EOF || (err == nil && k == 0) {
			break
		}
		if err != nil {
			return n, gen, err
		}
	}
	return n, gen, nil
}

// ReadWait is the blocking read entry point for event-stream files: a
// long poll. The path is resolved under the namespace lock; if its
// device implements WaitDevice the wait itself happens OUTSIDE the
// lock, parked on the device's own synchronization, until events past
// seq since arrive, stop closes, or timeout expires. On anything else
// — a regular file, a snapshot device — it degrades to a plain
// ReadFileGen, returning the contents and generation immediately, so a
// remote long poll on an arbitrary path is simply a read. Like every
// device entry point it is panic-guarded: a handler bug becomes an
// error on this call, not a dead process.
func (fs *FS) ReadWait(p string, since uint64, stop <-chan struct{}, timeout time.Duration) (data []byte, next uint64, err error) {
	fs.lock()
	n, ferr := fs.find(p)
	if ferr != nil {
		fs.unlock()
		return nil, 0, ferr
	}
	if n.dir {
		fs.unlock()
		return nil, 0, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	wd, waitable := n.device.(WaitDevice)
	fs.unlock()
	if waitable {
		defer func() {
			if r := recover(); r != nil {
				data, next, err = nil, 0, fmt.Errorf("%s: readwait: internal error: %v", p, r)
			}
		}()
		data, next, err = wd.ReadWait(since, stop, timeout)
		if !errors.Is(err, ErrNotWaitable) {
			return data, next, err
		}
	}
	return fs.ReadFileGen(p)
}

// chunkPool recycles the scratch buffer readDevice drains handles
// through: device reads sit on the remote read hot path, and the chunk
// never escapes, so reusing it cuts one allocation per device read.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 4096); return &b }}

func (fs *FS) readDevice(n *node) ([]byte, error) {
	h, err := n.device.OpenDevice(OREAD)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	var out []byte
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf := *bufp
	off := int64(0)
	for {
		k, err := h.ReadAt(buf, off)
		out = append(out, buf[:k]...)
		off += int64(k)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if k == 0 {
			return out, nil
		}
	}
}

// AppendFile appends data to the file at p, creating it if necessary.
func (fs *FS) AppendFile(p string, data []byte) error {
	fs.lock()
	defer fs.unlock()
	n, err := fs.find(p)
	if errors.Is(err, ErrNotExist) {
		return fs.writeFile(p, data)
	}
	if err != nil {
		return err
	}
	if n.dir {
		return fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	if n.device != nil {
		h, err := n.device.OpenDevice(OWRITE | OAPPEND)
		if err != nil {
			return err
		}
		_, werr := h.WriteAt(data, -1)
		// As in writeDevice: the append commits (and may be refused)
		// at Close.
		cerr := h.Close()
		if werr != nil {
			return werr
		}
		return cerr
	}
	if n.sealed {
		return sealErr(p)
	}
	n.data = append(n.data, data...)
	n.mtime = fs.tick()
	fs.mutated(MutAppend, p, data, "", 0)
	return nil
}

// RegisterDevice installs a synthetic file backed by dev at path p,
// creating parent directories as needed.
func (fs *FS) RegisterDevice(p string, dev Device) error {
	fs.lock()
	defer fs.unlock()
	p = Clean(p)
	if err := fs.mkdirAll(path.Dir(p)); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if parent.sealed {
		return sealErr(p)
	}
	parent.children[base] = &node{name: base, device: dev}
	return nil
}

// RemoveDevice removes the synthetic file at p if present.
func (fs *FS) RemoveDevice(p string) {
	fs.lock()
	defer fs.unlock()
	_ = fs.remove(p)
}

// Stat describes the file at p.
func (fs *FS) Stat(p string) (Info, error) {
	fs.lock()
	defer fs.unlock()
	n, err := fs.find(p)
	if err != nil {
		return Info{}, err
	}
	name := path.Base(Clean(p))
	return Info{Name: name, IsDir: n.dir, Size: int64(len(n.data)), ModTime: n.mtime, Gen: genOf(n)}, nil
}

// Exists reports whether p names an existing file or directory.
func (fs *FS) Exists(p string) bool {
	fs.lock()
	defer fs.unlock()
	return fs.exists(p)
}

func (fs *FS) exists(p string) bool {
	_, err := fs.find(p)
	return err == nil
}

// IsDir reports whether p names an existing directory.
func (fs *FS) IsDir(p string) bool {
	fs.lock()
	defer fs.unlock()
	n, err := fs.find(p)
	return err == nil && n.dir
}

// ReadDir lists the entries of directory p in sorted order. For union
// mountpoints, entries from every member are merged; the first member
// providing a name wins.
func (fs *FS) ReadDir(p string) ([]Info, error) {
	fs.lock()
	defer fs.unlock()
	return fs.readDir(p)
}

func (fs *FS) readDir(p string) ([]Info, error) {
	seen := map[string]bool{}
	var out []Info
	found := false
	var firstErr error
	for _, c := range fs.resolve(p) {
		n, err := fs.lookup(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !n.dir {
			return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		found = true
		for name, child := range n.children {
			if seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, Info{Name: name, IsDir: child.dir, Size: int64(len(child.data)), ModTime: child.mtime, Gen: genOf(child)})
		}
	}
	if !found {
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		return nil, firstErr
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove deletes the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	fs.lock()
	defer fs.unlock()
	return fs.remove(p)
}

func (fs *FS) remove(p string) error {
	var firstErr error
	for _, c := range fs.resolve(p) {
		dir, base := path.Split(Clean(c))
		parent, err := fs.lookup(Clean(dir))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		child, ok := parent.children[base]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p, ErrNotExist)
			}
			continue
		}
		if child.dir && len(child.children) > 0 {
			return fmt.Errorf("%s: directory not empty", p)
		}
		if parent.sealed || child.sealed {
			return sealErr(p)
		}
		wasDevice := child.device != nil
		delete(parent.children, base)
		if !wasDevice {
			fs.mutated(MutRemove, p, nil, "", 0)
		}
		return nil
	}
	return firstErr
}

// Glob expands a shell pattern against the namespace. Patterns use
// path.Match syntax per component ("/usr/rob/src/help/*.c"). A pattern
// with no metacharacters returns itself if it exists, nothing otherwise.
// Results are sorted.
func (fs *FS) Glob(pattern string) []string {
	fs.lock()
	defer fs.unlock()
	pattern = Clean(pattern)
	if !strings.ContainsAny(pattern, "*?[") {
		if fs.exists(pattern) {
			return []string{pattern}
		}
		return nil
	}
	matches := []string{"/"}
	for _, elem := range split(pattern) {
		var next []string
		for _, m := range matches {
			if !strings.ContainsAny(elem, "*?[") {
				cand := Clean(m + "/" + elem)
				if fs.exists(cand) {
					next = append(next, cand)
				}
				continue
			}
			ents, err := fs.readDir(m)
			if err != nil {
				continue
			}
			for _, e := range ents {
				if ok, _ := path.Match(elem, e.Name); ok {
					next = append(next, Clean(m+"/"+e.Name))
				}
			}
		}
		matches = next
	}
	sort.Strings(matches)
	return matches
}
