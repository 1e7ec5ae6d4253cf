// Package helpfs exposes help's window structure as a file service, the
// paper's programming interface: "Each help window is represented by a
// set of files stored in numbered directories. ... Each directory contains
// files such as tag and body, which may be read to recover the contents of
// the corresponding subwindow, and ctl, to which may be written messages
// to effect changes such as insertion and deletion of text."
//
// The service mounts (conventionally) at /mnt/help:
//
//	/mnt/help/index      window number, a tab, and the first line of the tag
//	/mnt/help/procs      live external commands: id, window, runtime, state, name
//	/mnt/help/ctl        service-wide messages: "open name[:addr]"
//	/mnt/help/new/ctl    opening it creates a window placed automatically
//	                     near the current selection; reading it returns the
//	                     new window's number
//	/mnt/help/N/tag      read/write the tag
//	/mnt/help/N/body     read/write the body (write replaces)
//	/mnt/help/N/bodyapp  writes append to the body
//	/mnt/help/N/ctl      control messages, one per line:
//	                       name <file>   set the file name (standard tag)
//	                       tag <text>    set the whole tag line
//	                       clean | dirty mark the body's modified state
//	                       show <addr>   scroll/select an address (27, #5, /x/)
//	                       select Q0 Q1  set the body selection
//	                       delete        close the window
//
// Everything is implemented as vfs synthetic files bound to a live
// core.Help, so shell scripts drive the user interface with cat, echo and
// redirection — "applications (even shell procedures) exploit the
// graphical user interface of the system" without any UI code of their own.
package helpfs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/notify"
	"repro/internal/text"
	"repro/internal/vfs"
)

// Service binds a help instance to a mount point in its namespace.
type Service struct {
	h    *core.Help
	fs   *vfs.FS
	root string
	// kinds maps a served file kind (tag, body, ...) to its
	// instruments; histos tracks which histogram files are registered.
	kinds  map[string]*kindObs
	histos map[string]bool
}

// Attach mounts the service for h at root (normally "/mnt/help") in fs and
// keeps it in sync as windows come and go. Alongside the window files it
// serves the observability files (stats, trace, histo/<name>) when h
// carries a registry.
func Attach(h *core.Help, fs *vfs.FS, root string) (*Service, error) {
	s := &Service{h: h, fs: fs, root: vfs.Clean(root)}
	s.initObs()
	if err := fs.MkdirAll(s.root); err != nil {
		return nil, err
	}
	if err := s.register(s.root+"/index", readDevice{content: s.index, k: s.kinds["index"]}); err != nil {
		return nil, err
	}
	if err := s.register(s.root+"/procs", readDevice{content: s.procsFile}); err != nil {
		return nil, err
	}
	if err := s.register(s.root+"/new/ctl", &newCtlDevice{s: s}); err != nil {
		return nil, err
	}
	if err := s.register(s.root+"/ctl", &rootCtlDevice{s: s}); err != nil {
		return nil, err
	}
	// The global event log: every bus event (window lifecycle, body/tag
	// edits, exec, trace/fault via the obs sink), one line each. A plain
	// read drains what arrived since open; blocking reads go through
	// vfs.ReadWait / srvnet readwait.
	if err := s.register(s.root+"/log", notify.Device{Bus: h.Notify}); err != nil {
		return nil, err
	}
	if err := s.registerObsFiles(); err != nil {
		return nil, err
	}
	h.SetStatsPath(s.root + "/stats")
	for _, w := range h.Windows() {
		if err := s.addWindow(w); err != nil {
			return nil, err
		}
	}
	prevCreate, prevClose := h.OnWindowCreated, h.OnWindowClosed
	h.OnWindowCreated = func(w *core.Window) {
		if prevCreate != nil {
			prevCreate(w)
		}
		s.addWindow(w)
	}
	h.OnWindowClosed = func(w *core.Window) {
		if prevClose != nil {
			prevClose(w)
		}
		s.removeWindow(w)
	}
	return s, nil
}

// Root returns the mount point.
func (s *Service) Root() string { return s.root }

// index renders the index file: "Each line of this file is a window
// number, a tab, and the first line of the tag."
//
// Device content functions run with the actor lock already held — the
// namespace views that reach them serialize on it — so they use the
// View accessor, never the locking exported methods.
func (s *Service) index() string {
	var b strings.Builder
	for _, w := range s.h.View().Windows() {
		tag := w.Tag.String()
		if i := strings.IndexByte(tag, '\n'); i >= 0 {
			tag = tag[:i]
		}
		fmt.Fprintf(&b, "%d\t%s\n", w.ID, tag)
	}
	return b.String()
}

func (s *Service) winDir(id int) string {
	return fmt.Sprintf("%s/%d", s.root, id)
}

// addWindow registers the numbered directory for w.
func (s *Service) addWindow(w *core.Window) error {
	dir := s.winDir(w.ID)
	id := w.ID
	if err := s.register(dir+"/tag", &bufDevice{s: s, id: id, sub: core.SubTag, k: s.kinds["tag"]}); err != nil {
		return err
	}
	if err := s.register(dir+"/body", &bufDevice{s: s, id: id, sub: core.SubBody, k: s.kinds["body"]}); err != nil {
		return err
	}
	if err := s.register(dir+"/bodyapp", &bufDevice{s: s, id: id, sub: core.SubBody, appendOnly: true, k: s.kinds["bodyapp"]}); err != nil {
		return err
	}
	// Per-window event stream: this window's lifecycle and edit events
	// only, the file a tool watches instead of polling body.
	if err := s.register(dir+"/event", notify.Device{Bus: s.h.Notify, Win: id}); err != nil {
		return err
	}
	return s.register(dir+"/ctl", &ctlDevice{s: s, id: id, k: s.kinds["ctl"]})
}

// removeWindow tears down the numbered directory.
func (s *Service) removeWindow(w *core.Window) {
	dir := s.winDir(w.ID)
	for _, f := range []string{"tag", "body", "bodyapp", "event", "ctl"} {
		s.fs.RemoveDevice(dir + "/" + f)
	}
	s.fs.Remove(dir)
}

// procsFile renders /mnt/help/procs: one live command per line — id,
// originating window (0 if none), runtime, state, and the command text,
// tab-separated with the name last since it may contain blanks.
func (s *Service) procsFile() string {
	var b strings.Builder
	for _, p := range s.h.View().Procs() {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%s\t%s\n",
			p.ID, p.WinID, p.Runtime.Round(time.Millisecond), p.State, p.Name)
	}
	return b.String()
}

// window fetches a live window by id.
func (s *Service) window(id int) (*core.Window, error) {
	w := s.h.View().Window(id)
	if w == nil {
		return nil, fmt.Errorf("helpfs: no window %d", id)
	}
	return w, nil
}

// ---- devices ----------------------------------------------------------------

// readDevice adapts a content function to a read-only device whose
// contents are computed once per open. The stats/trace/histo files
// use it uninstrumented (k nil): reading the meter must not move it.
type readDevice struct {
	content func() string
	k       *kindObs
}

func (d readDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	return &stringHandle{content: d.content(), k: d.k, t0: d.k.open()}, nil
}

type stringHandle struct {
	content string
	k       *kindObs
	t0      time.Time
}

func (h *stringHandle) ReadAt(p []byte, off int64) (int, error) {
	h.k.read()
	if off >= int64(len(h.content)) {
		return 0, io.EOF
	}
	n := copy(p, h.content[off:])
	if int(off)+n == len(h.content) {
		return n, io.EOF
	}
	return n, nil
}

func (h *stringHandle) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("helpfs: read-only file")
}

func (h *stringHandle) Close() error {
	h.k.close(h.t0)
	return nil
}

// bufDevice serves a subwindow's buffer. Reads snapshot the contents at
// open; a plain write replaces the buffer (the paper's body semantics),
// while appendOnly handles bodyapp: "standard output ... is appended to
// the new window by writing to /mnt/help/$x/bodyapp".
type bufDevice struct {
	s          *Service
	id         int
	sub        int
	appendOnly bool
	k          *kindObs
}

// Gen reports the backing buffer's edit generation, offset by one so a
// pristine buffer (text.Buffer.Gen 0) is still distinguishable from
// vfs's "no generation" zero. It is called under the actor lock, like
// every device operation, so the gen and the contents a concurrent read
// observes are coherent. This is what lets srvnet clients cache body
// and tag reads: an unchanged generation proves unchanged contents.
func (d *bufDevice) Gen() uint64 {
	w := d.s.h.View().Window(d.id)
	if w == nil {
		return 0
	}
	return w.Buffer(d.sub).Gen() + 1
}

func (d *bufDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	w, err := d.s.window(d.id)
	if err != nil {
		return nil, err
	}
	h := &bufHandle{d: d, k: d.k, t0: d.k.open()}
	rw := mode &^ (vfs.OTRUNC | vfs.OAPPEND)
	if rw != vfs.OREAD {
		h.writable = true
	}
	// A write-only open never reads, so skip the snapshot: appenders
	// (bodyapp, the path every tool's output takes) must not pay a copy
	// of the whole buffer per write.
	if rw != vfs.OWRITE {
		h.readable = true
		if b := w.Buffer(d.sub); b.Paged() {
			// A paged body may be gigabytes mostly on disk; String()
			// here would defeat the point of paging. Serve reads
			// straight from the piece table instead. This trades the
			// snapshot guarantee for bounded memory: reads of a paged
			// body observe the contents as of each ReadAt (the reader
			// re-seeks when the buffer's generation moves), which is
			// the same coherence a remote srvnet reader already gets
			// across its separate reads.
			h.reader = text.NewByteReader(b)
		} else {
			h.snapshot = w.Buffer(d.sub).String()
		}
	}
	return h, nil
}

type bufHandle struct {
	d        *bufDevice
	snapshot string
	// reader replaces snapshot for paged bodies; see OpenDevice.
	reader   *text.ByteReader
	readable bool
	writable bool
	wrote    bool
	pending  []byte
	k        *kindObs
	t0       time.Time
}

func (h *bufHandle) ReadAt(p []byte, off int64) (int, error) {
	if !h.readable {
		return 0, fmt.Errorf("helpfs: not opened for reading")
	}
	h.k.read()
	if h.reader != nil {
		return h.reader.ReadAt(p, off)
	}
	if off >= int64(len(h.snapshot)) {
		return 0, io.EOF
	}
	n := copy(p, h.snapshot[off:])
	if int(off)+n == len(h.snapshot) {
		return n, io.EOF
	}
	return n, nil
}

func (h *bufHandle) WriteAt(p []byte, off int64) (int, error) {
	if !h.writable {
		return 0, fmt.Errorf("helpfs: not opened for writing")
	}
	h.k.write()
	h.wrote = true
	h.pending = append(h.pending, p...)
	return len(p), nil
}

// Close applies buffered writes: bodyapp appends, tag/body replace. The
// window is looked up again, so a write to a window closed since the
// open fails instead of editing a buffer no longer on the screen.
func (h *bufHandle) Close() error {
	defer h.k.close(h.t0)
	if !h.wrote {
		return nil
	}
	w, err := h.d.s.window(h.d.id)
	if err != nil {
		return err
	}
	buf := w.Buffer(h.d.sub)
	// Admission check before the splice: a remote writer filling bodies
	// is bounded by the same memory budgets as Open/Get, so one session
	// streaming huge payloads through /mnt/help cannot starve neighbors.
	add := len(h.pending)
	if !h.d.appendOnly {
		add -= buf.Len()
	}
	if err := h.d.s.h.View().CheckMem(add); err != nil {
		return err
	}
	if h.d.appendOnly {
		buf.Insert(buf.Len(), string(h.pending))
	} else {
		buf.SetString(string(h.pending))
	}
	buf.Commit()
	// A replacement may have shrunk the buffer under an existing
	// selection; re-clamping keeps every later edit in range.
	sel := w.Sel[h.d.sub]
	w.SetSelection(h.d.sub, sel.Q0, sel.Q1)
	// Tags are never rewritten implicitly here: programs own their
	// windows' tags and use the "name"/"tag"/"clean"/"dirty" control
	// messages when they want the standard decorations.
	return nil
}

// newCtlDevice creates a window per open: "To create a new window, a
// process just opens /mnt/help/new/ctl, which places the new window
// automatically on the screen near the current selected text, and may then
// read from that file the name of the window created."
type newCtlDevice struct {
	s *Service
}

func (d *newCtlDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	k := d.s.kinds["ctl"]
	t0 := k.open()
	w := d.s.h.View().NewWindow()
	return &newCtlHandle{s: d.s, id: w.ID, name: strconv.Itoa(w.ID) + "\n", k: k, t0: t0}, nil
}

type newCtlHandle struct {
	s    *Service
	id   int
	name string
	ctl  ctlHandle
	k    *kindObs
	t0   time.Time
}

func (h *newCtlHandle) ReadAt(p []byte, off int64) (int, error) {
	h.k.read()
	if off >= int64(len(h.name)) {
		return 0, io.EOF
	}
	n := copy(p, h.name[off:])
	return n, io.EOF
}

// WriteAt forwards control messages, so a script can create and configure
// a window through the single open file.
func (h *newCtlHandle) WriteAt(p []byte, off int64) (int, error) {
	h.k.write()
	h.ctl = ctlHandle{s: h.s, id: h.id}
	return h.ctl.WriteAt(p, off)
}

func (h *newCtlHandle) Close() error {
	h.k.close(h.t0)
	return nil
}

// rootCtlDevice accepts service-wide control messages:
//
//	open name[:addr]   open a file or directory in a window, positioned
//	                   at the optional address — the hook that lets a
//	                   tool "close the loop so the Open operation also
//	                   happens automatically" (the paper's planned change
//	                   to the decl browser).
type rootCtlDevice struct {
	s *Service
}

func (d *rootCtlDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	k := d.s.kinds["ctl"]
	return &rootCtlHandle{s: d.s, k: k, t0: k.open()}, nil
}

type rootCtlHandle struct {
	s  *Service
	k  *kindObs
	t0 time.Time
}

func (h *rootCtlHandle) ReadAt(p []byte, off int64) (int, error) {
	return 0, io.EOF
}

func (h *rootCtlHandle) WriteAt(p []byte, off int64) (int, error) {
	h.k.write()
	for _, line := range strings.Split(string(p), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		verb, arg := line, ""
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			verb, arg = line[:i], strings.TrimSpace(line[i+1:])
		}
		switch verb {
		case "open":
			name, addr := core.SplitAddr(arg)
			if _, err := h.s.h.View().OpenFile(name, addr); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("helpfs: unknown root ctl message %q", verb)
		}
	}
	return len(p), nil
}

func (h *rootCtlHandle) Close() error {
	h.k.close(h.t0)
	return nil
}

// ctlDevice accepts control messages for one window.
type ctlDevice struct {
	s  *Service
	id int
	k  *kindObs
}

func (d *ctlDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	return &ctlHandle{s: d.s, id: d.id, k: d.k, t0: d.k.open()}, nil
}

type ctlHandle struct {
	s  *Service
	id int
	k  *kindObs
	t0 time.Time
}

func (h *ctlHandle) ReadAt(p []byte, off int64) (int, error) {
	h.k.read()
	// Reading ctl reports the window id, handy for scripts.
	msg := strconv.Itoa(h.id) + "\n"
	if off >= int64(len(msg)) {
		return 0, io.EOF
	}
	n := copy(p, msg[off:])
	return n, io.EOF
}

func (h *ctlHandle) WriteAt(p []byte, off int64) (int, error) {
	h.k.write()
	w, err := h.s.window(h.id)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(p), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := h.s.ctlMessage(w, line); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (h *ctlHandle) Close() error {
	h.k.close(h.t0)
	return nil
}

// ctlMessage interprets one control line.
func (s *Service) ctlMessage(w *core.Window, line string) error {
	verb := line
	arg := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		verb, arg = line[:i], strings.TrimSpace(line[i+1:])
	}
	switch verb {
	case "name":
		w.SetNameTag(arg)
	case "tag":
		w.Tag.Load(arg)
	case "clean":
		w.Body.SetClean()
		w.RefreshTag()
	case "dirty":
		w.Body.SetDirty()
		w.RefreshTag()
	case "show":
		return w.ShowAddr(arg)
	case "select":
		var q0, q1 int
		if _, err := fmt.Sscanf(arg, "%d %d", &q0, &q1); err != nil {
			return fmt.Errorf("helpfs: bad select %q", arg)
		}
		w.SetSelection(core.SubBody, q0, q1)
	case "delete":
		s.h.View().CloseWindow(w)
	default:
		return fmt.Errorf("helpfs: unknown ctl message %q", verb)
	}
	return nil
}
