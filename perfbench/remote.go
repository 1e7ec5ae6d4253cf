package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/sessiond"
	"repro/internal/srvnet"
	"repro/internal/world"
)

// The remote workload is the file interface over the wire: a writer and
// a reader connection attached to one journaled sessiond session behind
// srvnet's mux server on loopback. Its time lands in srvnet, helpfs,
// vfs, notify and sessiond, and none in rendering or paged text. Reads
// sit beside writes, so a wire or cache change that helps one and costs
// the other shows.

const (
	remoteSession = "bench"
	remoteWindows = 4
	mnt           = world.MountRoot

	// remoteRoundsPerSecond sizes the fixed sequence; see
	// editRoundsPerSecond.
	remoteRoundsPerSecond = 900

	// freshWait bounds one ReadWait long poll; the event it waits for
	// is published before the writer's reply, so it returns at once.
	freshWait = 5 * time.Second
)

// openFiles are the sources a remote tool opens through /mnt/help/ctl.
var openFiles = []string{"exec.c", "help.c", "text.c", "file.c"}

type rKind int

const (
	rNew       rKind = iota // writer: create a window through new/ctl and name it
	rAppend                 // writer: bodyapp append; the reader reads it fresh
	rReadBody               // writer: read a body
	rReadDir                // writer: list the source tree
	rWrite                  // writer: body write; the reader reads it fresh
	rReadTag                // writer: read a tag
	rReadIndex              // writer: read the index
	rStat                   // writer: stat a body or a source file
	rCached                 // reader: re-read an unchanged body, served by the cache
	rOpen                   // writer: open a source file through /mnt/help/ctl and read it back, then delete the window
	rReset                  // end of round: the round's body back to its first text, created windows deleted
)

// remoteRound is one round of the mix, shuffled by the seed; every edit
// and read of a round goes to one window. Its first six kinds, with
// their counts, are one iteration of loadgen.DefaultTrace, the
// repository's model of a remote editing session: newwin and name, two
// bodyapp appends, a body read, a readdir, a body write and a tag read;
// the trace's closing delete is rReset's, and its log readwait is the
// reader's long poll after every edit. The kinds the trace lacks come
// once each.
var remoteRound = []struct {
	kind rKind
	n    int
}{
	{rNew, 1}, {rAppend, 2}, {rReadBody, 1}, {rReadDir, 1}, {rWrite, 1}, {rReadTag, 1},
	{rReadIndex, 1}, {rStat, 1}, {rCached, 1}, {rOpen, 1},
}

type remoteStep struct {
	kind rKind
	win  int
	n    int
	data string // payload of an append or a write
}

type remoteLoad struct {
	initial []string // each window's first body text
	script  []remoteStep

	// Set-up state.
	m               *meter
	checks          *checks
	reg, wreg, rreg *obs.Registry
	sess            *world.World
	mgr             *sessiond.Manager
	srv             *srvnet.Server
	served          chan struct{}
	writer, reader  *srvnet.Client
	stopPush        func()
	ids             []int    // window ids of the driven windows
	since           []uint64 // each window's event-file resume point
	want            []string // what each body must hold
	created         []int    // windows made by rNew, deleted at the round's end
	sources         map[string]string
	spawn           time.Duration
}

func newRemote(cfg config) *remoteLoad {
	rng := rand.New(rand.NewSource(cfg.seed))
	r := &remoteLoad{}
	for i := 0; i < remoteWindows; i++ {
		r.initial = append(r.initial, payload(rng, 4))
	}
	rounds := cfg.seconds * remoteRoundsPerSecond
	for k := 0; k < rounds; k++ {
		var round []remoteStep
		win := rng.Intn(remoteWindows)
		for _, t := range remoteRound {
			for i := 0; i < t.n; i++ {
				st := remoteStep{kind: t.kind, win: win, n: rng.Intn(1 << 20)}
				switch t.kind {
				case rAppend:
					st.data = payload(rng, 1)
				case rWrite:
					st.data = payload(rng, 2)
				}
				round = append(round, st)
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		r.script = append(r.script, round...)
		r.script = append(r.script, remoteStep{kind: rReset, win: win})
	}
	return r
}

// payload makes n lines of seeded words. Every line has six words of
// five letters: the seed picks the text, never its size, so that a run's
// memory, which grows with every body written (README.md), grows by the
// same amount whatever the seed.
func payload(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			for c := 0; c < 5; c++ {
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *remoteLoad) setups() int       { return 15 }
func (r *remoteLoad) steps() int        { return len(r.script) }
func (r *remoteLoad) speedProbe() probe { return wireProbe }

func (r *remoteLoad) registries() []*obs.Registry {
	return []*obs.Registry{r.sess.Help.Obs, r.reg, r.wreg, r.rreg}
}

func (r *remoteLoad) extras() map[string]float64 {
	return map[string]float64{"sessiond.spawn_ms": float64(r.spawn.Microseconds()) / 1e3}
}

func bodyPath(id int) string  { return fmt.Sprintf("%s/%d/body", mnt, id) }
func ctlPath(id int) string   { return fmt.Sprintf("%s/%d/ctl", mnt, id) }
func eventPath(id int) string { return fmt.Sprintf("%s/%d/event", mnt, id) }

func (r *remoteLoad) setUp(m *meter, cs *checks) error {
	r.checks = cs
	tmpl, err := world.NewTemplate()
	if err != nil {
		return err
	}
	r.reg, r.wreg, r.rreg = obs.New(), obs.New(), obs.New()
	jfs := journal.NewMemFS()
	r.mgr = sessiond.NewManager(sessiond.Config{
		Width:       120,
		Height:      60,
		MaxSessions: 4,
		Obs:         r.reg,
		JournalFS:   func(string) (journal.Fsys, error) { return jfs, nil },
		Build: func(name string, w, h int) (*world.World, error) {
			wld, err := tmpl.NewSession(w, h)
			r.sess = wld
			return wld, err
		},
	})
	r.srv = srvnet.NewMuxServer(r.mgr)
	r.srv.Obs = r.reg
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		r.srv.Serve(l)
	}()
	if r.writer, err = srvnet.Dial(l.Addr().String()); err != nil {
		return err
	}
	r.writer.Obs = r.wreg
	t0 := time.Now()
	m.call("sessiond.spawn", func() { err = r.writer.Attach(remoteSession) })
	r.spawn = time.Since(t0)
	if err != nil {
		return fmt.Errorf("attach writer: %w", err)
	}
	if r.reader, err = srvnet.Dial(l.Addr().String()); err != nil {
		return err
	}
	r.reader.Obs = r.rreg
	if err := r.reader.Attach(remoteSession); err != nil {
		return fmt.Errorf("attach reader: %w", err)
	}
	r.reader.SetCache(true)
	r.stopPush = r.reader.StartPushInval(mnt)

	r.ids, r.since, r.want, r.created = nil, nil, nil, nil
	for i := 0; i < remoteWindows; i++ {
		id, err := r.newWindow(fmt.Sprintf("/usr/rob/tmp/remote%d", i))
		if err != nil {
			return err
		}
		if err := r.writer.WriteFile(bodyPath(id), []byte(r.initial[i])); err != nil {
			return err
		}
		_, since, err := r.reader.ReadWait(eventPath(id), 0, time.Millisecond)
		if err != nil {
			return err
		}
		r.ids, r.since, r.want = append(r.ids, id), append(r.since, since), append(r.want, r.initial[i])
	}
	r.sources = map[string]string{}
	for _, f := range openFiles {
		data, err := r.writer.ReadFile(world.SrcDir + "/" + f)
		if err != nil {
			return err
		}
		r.sources[f] = string(data)
	}
	// Warm-up: one fresh cycle and one cached read per window, so the
	// reader's cache and the session's buffers start as they stay.
	r.m = &meter{}
	warm := &checks{}
	for i := range r.ids {
		r.fresh(warm, i, "warm", []byte(r.initial[i]), false)
		r.cached(warm, i)
	}
	if r.m.failed > 0 {
		return fmt.Errorf("warm-up: %v", r.m.firstErr)
	}
	r.m = m
	return nil
}

// newWindow creates a window through new/ctl and names it.
func (r *remoteLoad) newWindow(name string) (int, error) {
	id, err := r.newID()
	if err != nil {
		return 0, err
	}
	return id, r.writer.WriteFile(ctlPath(id), []byte("name "+name+"\n"))
}

func (r *remoteLoad) step(i int) { r.do(r.script[i]) }

// op is one srvnet round trip as an input action.
func (r *remoteLoad) op(name string, fn func() error) error {
	r.m.begin(clsInput, "op."+name)
	var err error
	r.m.call(name, func() { err = fn() })
	r.m.stop()
	return err
}

func (r *remoteLoad) do(st remoteStep) {
	w, id := r.writer, r.ids[st.win]
	switch st.kind {
	case rReadTag, rReadBody, rReadIndex:
		p := map[rKind]string{rReadTag: fmt.Sprintf("%s/%d/tag", mnt, id), rReadBody: bodyPath(id), rReadIndex: mnt + "/index"}[st.kind]
		var data []byte
		err := r.op("srvnet.ReadFile", func() (err error) { data, err = w.ReadFile(p); return })
		if err == nil && st.kind == rReadBody {
			err = r.checks.note("writer reads the body it wrote", r.same(st.win, data))
		}
		r.m.end(err)
	case rStat:
		p := bodyPath(id)
		if st.n%2 == 1 {
			p = world.SrcDir + "/" + openFiles[st.n%len(openFiles)]
		}
		r.m.end(r.op("srvnet.Stat", func() error { _, err := w.Stat(p); return err }))
	case rReadDir:
		var n int
		err := r.op("srvnet.ReadDir", func() error {
			ents, err := w.ReadDir(world.SrcDir)
			n = len(ents)
			return err
		})
		if err == nil && n == 0 {
			err = fmt.Errorf("empty source directory listing")
		}
		r.m.end(err)
	case rCached:
		r.cached(r.checks, st.win)
	case rAppend:
		r.fresh(r.checks, st.win, "append", []byte(st.data), true)
	case rWrite:
		r.fresh(r.checks, st.win, "write", []byte(st.data), false)
	case rOpen:
		r.open(openFiles[st.n%len(openFiles)])
	case rNew:
		var nid int
		err := r.op("srvnet.ReadFile", func() (err error) { nid, err = r.newID(); return })
		r.m.end(err)
		if err == nil {
			r.created = append(r.created, nid)
			r.m.end(r.op("srvnet.WriteFile", func() error {
				return w.WriteFile(ctlPath(nid), []byte(fmt.Sprintf("name /usr/rob/tmp/new%d\n", nid)))
			}))
		}
	case rReset:
		if r.want[st.win] != r.initial[st.win] {
			r.fresh(r.checks, st.win, "write", []byte(r.initial[st.win]), false)
		}
		for _, nid := range r.created {
			r.m.end(r.op("srvnet.WriteFile", func() error { return w.WriteFile(ctlPath(nid), []byte("delete\n")) }))
		}
		r.created = r.created[:0]
	}
}

// newID creates a window by reading new/ctl and returns its number.
func (r *remoteLoad) newID() (int, error) {
	data, err := r.writer.ReadFile(mnt + "/new/ctl")
	if err != nil {
		return 0, err
	}
	id, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, fmt.Errorf("new/ctl returned %q", data)
	}
	return id, nil
}

// same checks a body read against the benchmark's model of window i.
func (r *remoteLoad) same(i int, data []byte) error {
	if string(data) != r.want[i] {
		return fmt.Errorf("window %d body holds %d bytes, %d expected", r.ids[i], len(data), len(r.want[i]))
	}
	return nil
}

// cached re-reads an unchanged body on the reader connection, where the
// generation cache serves it without a round trip. It is timed aside,
// so that the input class holds wire round trips only.
func (r *remoteLoad) cached(cs *checks, i int) {
	var data []byte
	var err error
	r.m.begin(clsAside, "cached")
	r.m.call("srvnet.cached.ReadFile", func() { data, err = r.reader.ReadFile(bodyPath(r.ids[i])) })
	r.m.stop()
	if err == nil {
		err = cs.note("cached reads return the current body", r.same(i, data))
	}
	r.m.end(err)
}

// fresh is one effect action: the writer appends to or replaces window
// i's body, and the clock runs until the reader connection has read the
// new bytes. The reader learns of the edit only through the program's
// push path, a ReadWait long poll on the window's event file; if its
// cached read still comes back stale, it revalidates with Stat.
func (r *remoteLoad) fresh(cs *checks, i int, name string, data []byte, appendData bool) {
	id := r.ids[i]
	want := string(data)
	if appendData {
		want = r.want[i] + want
	}
	r.want[i] = want
	r.m.begin(clsEffect, "fresh."+name)
	var err error
	if appendData {
		r.m.call("srvnet.AppendFile", func() { err = r.writer.AppendFile(fmt.Sprintf("%s/%d/bodyapp", mnt, id), data) })
	} else {
		r.m.call("srvnet.WriteFile", func() { err = r.writer.WriteFile(bodyPath(id), data) })
	}
	if err == nil {
		err = r.awaitBody(i)
	}
	var got []byte
	if err == nil {
		r.m.call("srvnet.cached.ReadFile", func() { got, err = r.reader.ReadFile(bodyPath(id)) })
	}
	if err == nil && string(got) != want {
		r.m.call("srvnet.Stat", func() { _, err = r.reader.Stat(bodyPath(id)) })
		if err == nil {
			r.m.call("srvnet.cached.ReadFile", func() { got, err = r.reader.ReadFile(bodyPath(id)) })
		}
	}
	r.m.stop()
	if err == nil {
		err = cs.note("fresh reads return exactly the bytes written", r.same(i, got))
	}
	r.m.end(err)
}

// awaitBody long-polls window i's event file on the reader connection
// until a body event arrives.
func (r *remoteLoad) awaitBody(i int) error {
	for {
		var data []byte
		var next uint64
		var err error
		r.m.call("srvnet.ReadWait", func() { data, next, err = r.reader.ReadWait(eventPath(r.ids[i]), r.since[i], freshWait) })
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return fmt.Errorf("no body event on window %d within %v", r.ids[i], freshWait)
		}
		r.since[i] = next
		for _, line := range strings.Split(string(data), "\n") {
			if ev, ok := notify.ParseLine(line); ok && ev.Kind == "body" {
				return nil
			}
		}
	}
}

// open is one open action: a remote tool asks help to open a source
// file through /mnt/help/ctl, finds the new window in the index, and
// reads its body back. The window is then deleted, one more op.
func (r *remoteLoad) open(file string) {
	w := r.writer
	r.m.begin(clsOpen, "open")
	var err error
	var id int
	var body []byte
	r.m.call("srvnet.WriteFile", func() { err = w.WriteFile(mnt+"/ctl", []byte("open "+world.SrcDir+"/"+file+"\n")) })
	if err == nil {
		var index []byte
		r.m.call("srvnet.ReadFile", func() { index, err = w.ReadFile(mnt + "/index") })
		if err == nil {
			id, err = lastWindow(index)
		}
	}
	if err == nil {
		r.m.call("srvnet.ReadFile", func() { body, err = w.ReadFile(bodyPath(id)) })
	}
	r.m.stop()
	if err == nil && string(body) != r.sources[file] {
		err = fmt.Errorf("opened %s reads back %d bytes, the file has %d", file, len(body), len(r.sources[file]))
	}
	r.m.end(r.checks.note("a remote open reads back the file", err))
	if id > 0 {
		r.m.end(r.op("srvnet.WriteFile", func() error { return w.WriteFile(ctlPath(id), []byte("delete\n")) }))
	}
}

// lastWindow returns the highest window id listed in an index.
func lastWindow(index []byte) (int, error) {
	best := 0
	for _, line := range strings.Split(string(index), "\n") {
		f, _, _ := strings.Cut(line, "\t")
		if id, err := strconv.Atoi(f); err == nil && id > best {
			best = id
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no window in the index")
	}
	return best, nil
}

// finish checks that every driven body ends as the model says.
func (r *remoteLoad) finish(cs *checks) {
	for i, id := range r.ids {
		data, err := r.writer.ReadFile(bodyPath(id))
		if err == nil {
			err = r.same(i, data)
		}
		cs.note("final bodies equal the expected text", err)
	}
}

func (r *remoteLoad) tearDown() {
	if r.stopPush != nil {
		r.stopPush()
		r.stopPush = nil
	}
	for _, c := range []*srvnet.Client{r.writer, r.reader} {
		if c != nil {
			c.Close()
		}
	}
	r.writer, r.reader = nil, nil
	if r.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	<-r.served
	r.mgr.Drain(ctx)
	r.srv = nil
}
