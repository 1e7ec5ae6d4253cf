package notify

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPublishSubscribeOrder(t *testing.T) {
	b := New()
	s := b.Subscribe(0, 0)
	defer s.Close()
	b.Publish(1, "new", "")
	b.Publish(1, "body", "gen 2")
	b.Publish(2, "new", "")

	want := []Event{
		{Seq: 1, Window: 1, Kind: "new"},
		{Seq: 2, Window: 1, Kind: "body", Detail: "gen 2"},
		{Seq: 3, Window: 2, Kind: "new"},
	}
	for i, w := range want {
		ev, ok := s.TryNext()
		if !ok || ev != w {
			t.Fatalf("event %d = %+v ok=%v, want %+v", i, ev, ok, w)
		}
	}
	if _, ok := s.TryNext(); ok {
		t.Error("extra event after the published three")
	}
}

func TestWindowFilter(t *testing.T) {
	b := New()
	s := b.Subscribe(2, 0)
	defer s.Close()
	b.Publish(1, "new", "")
	b.Publish(2, "new", "")
	b.Publish(0, "exec", "date") // session-wide events are filtered too
	ev, ok := s.TryNext()
	if !ok || ev.Window != 2 {
		t.Fatalf("ev = %+v ok=%v", ev, ok)
	}
	if _, ok := s.TryNext(); ok {
		t.Error("filtered subscription saw another window's event")
	}
}

// TestRingOverflowMarksGap: the history laps a slow reader; the next
// read sees one synthesized gap marker counting the losses, then the
// retained (newest) tail in order.
func TestRingOverflowMarksGap(t *testing.T) {
	b := NewSized(4)
	s := b.Subscribe(0, 0)
	defer s.Close()
	for i := 0; i < 10; i++ {
		b.Publish(1, "body", "")
	}
	ev, ok := s.TryNext()
	if !ok || ev.Kind != KindGap || ev.Seq != 0 {
		t.Fatalf("first = %+v, want gap marker", ev)
	}
	if ev.Detail != "6 missed" {
		t.Errorf("gap detail = %q, want \"6 missed\"", ev.Detail)
	}
	// The tail is the newest 4, contiguous.
	for want := uint64(7); want <= 10; want++ {
		ev, ok := s.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("after gap: seq %d ok=%v, want %d", ev.Seq, ok, want)
		}
	}
}

// TestResumeFromSeq: a subscriber that remembers its last seq is
// backfilled from history with nothing duplicated or lost.
func TestResumeFromSeq(t *testing.T) {
	b := New()
	for i := 0; i < 5; i++ {
		b.Publish(1, "body", "")
	}
	s := b.Subscribe(0, 3)
	defer s.Close()
	for want := uint64(4); want <= 5; want++ {
		ev, ok := s.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("seq %d ok=%v, want %d", ev.Seq, ok, want)
		}
	}
	if _, ok := s.TryNext(); ok {
		t.Error("resume delivered more than the missing tail")
	}
}

// TestResumePastHistoryGetsGap: resuming from a seq the bounded history
// has already dropped yields a gap marker, then everything retained.
func TestResumePastHistoryGetsGap(t *testing.T) {
	b := NewSized(4)
	for i := 0; i < 10; i++ {
		b.Publish(1, "body", "")
	}
	s := b.Subscribe(0, 2) // events 3..6 are gone (history holds 7..10)
	defer s.Close()
	ev, ok := s.TryNext()
	if !ok || ev.Kind != KindGap || ev.Detail != "4 missed" {
		t.Fatalf("first = %+v ok=%v, want 4-missed gap", ev, ok)
	}
	for want := uint64(7); want <= 10; want++ {
		ev, ok := s.TryNext()
		if !ok || ev.Seq != want {
			t.Fatalf("seq %d ok=%v, want %d", ev.Seq, ok, want)
		}
	}
}

func TestNextBlocksUntilPublish(t *testing.T) {
	b := New()
	s := b.Subscribe(0, 0)
	defer s.Close()
	got := make(chan Event, 1)
	go func() {
		ev, err := s.Next(nil, 2*time.Second)
		if err != nil {
			t.Errorf("Next: %v", err)
		}
		got <- ev
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish(3, "new", "")
	select {
	case ev := <-got:
		if ev.Window != 3 || ev.Kind != "new" {
			t.Errorf("ev = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke")
	}
}

func TestNextUnblocksOnStopAndClose(t *testing.T) {
	b := New()
	s := b.Subscribe(0, 0)
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() { _, err := s.Next(stop, 0); errs <- err }()
	close(stop)
	if err := <-errs; err != ErrStopped {
		t.Errorf("stop: err = %v, want ErrStopped", err)
	}

	go func() { _, err := s.Next(nil, 0); errs <- err }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	if err := <-errs; err != ErrClosed {
		t.Errorf("close: err = %v, want ErrClosed", err)
	}
}

func TestNextTimeout(t *testing.T) {
	b := New()
	s := b.Subscribe(0, 0)
	defer s.Close()
	if _, err := s.Next(nil, 5*time.Millisecond); err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// TestReadSince covers the long-poll primitive: batched delivery, the
// resume seq, and the empty-timeout poll.
func TestReadSince(t *testing.T) {
	b := New()
	for i := 0; i < 3; i++ {
		b.Publish(1, "body", "")
	}
	evs, next, err := b.ReadSince(0, 1, nil, time.Second)
	if err != nil || len(evs) != 2 || next != 3 {
		t.Fatalf("evs=%v next=%d err=%v", evs, next, err)
	}
	// Nothing new: the poll times out empty, resume seq intact.
	evs, next, err = b.ReadSince(0, next, nil, 5*time.Millisecond)
	if err != nil || len(evs) != 0 || next != 3 {
		t.Fatalf("empty poll: evs=%v next=%d err=%v", evs, next, err)
	}
	// And resuming from it picks up exactly the next event.
	b.Publish(2, "new", "")
	evs, next, err = b.ReadSince(0, next, nil, time.Second)
	if err != nil || len(evs) != 1 || evs[0].Seq != 4 || next != 4 {
		t.Fatalf("resume: evs=%v next=%d err=%v", evs, next, err)
	}
}

func TestLineRoundTrip(t *testing.T) {
	cases := []Event{
		{Seq: 7, Window: 2, Kind: "body", Detail: "gen 9"},
		{Seq: 1, Window: 0, Kind: "exec", Detail: "date -u"},
		{Seq: 3, Window: 1, Kind: "new"},
	}
	for _, ev := range cases {
		got, ok := ParseLine(ev.Line())
		if !ok || got != ev {
			t.Errorf("round trip %+v -> %q -> %+v ok=%v", ev, ev.Line(), got, ok)
		}
	}
	if _, ok := ParseLine("not an event"); ok {
		t.Error("garbage parsed")
	}
	if _, ok := ParseLine(""); ok {
		t.Error("empty line parsed")
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if seq := b.Publish(1, "new", ""); seq != 0 {
		t.Errorf("nil publish = %d", seq)
	}
	if b.Seq() != 0 {
		t.Error("nil Seq != 0")
	}
	if b.History() != nil {
		t.Error("nil History != nil")
	}
	b.SetObs(nil)
}

func TestSinkPublishesTraceEvents(t *testing.T) {
	b := New()
	s := b.Subscribe(0, 0)
	defer s.Close()
	b.Sink()(obs.Span{Name: "exec", Attrs: "date", Dur: 12 * time.Microsecond})
	ev, ok := s.TryNext()
	want := Event{Seq: 1, Kind: "trace", Detail: "exec 12us date"}
	if !ok || ev != want {
		t.Errorf("ev = %+v ok=%v, want %+v", ev, ok, want)
	}
}

// TestSpanRingConcurrent: spans ended from several goroutines land in
// the bus history while readers follow it mid-wrap. Every reader sees
// strictly ascending seqs and accounts for every seq exactly once,
// delivered or counted by a gap marker, and the history ends holding
// exactly the newest spans. Run under -race.
func TestSpanRingConcurrent(t *testing.T) {
	const (
		hist    = 64
		writers = 8
		perG    = 500
		total   = writers * perG
	)
	b := NewSized(hist)
	r := obs.New()
	r.SetSink(b.Sink())

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		since := b.Seq()
		s := b.Subscribe(0, since)
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer s.Close()
			want := since + 1
			for {
				ev, err := s.Next(stop, 0)
				if err != nil {
					return
				}
				if ev.Kind == KindGap {
					n, _ := strconv.ParseUint(strings.TrimSuffix(ev.Detail, " missed"), 10, 64)
					want += n
					continue
				}
				if ev.Seq != want {
					t.Errorf("reader got seq %d, want %d", ev.Seq, want)
					return
				}
				want++
			}
		}()
	}
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perG; i++ {
				r.StartSpan("w", "").End()
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	evs := b.History()
	if len(evs) != hist {
		t.Fatalf("history holds %d events, want %d", len(evs), hist)
	}
	for i, ev := range evs {
		if want := uint64(total - hist + 1 + i); ev.Seq != want || ev.Kind != "trace" {
			t.Fatalf("history[%d] = %+v, want trace seq %d", i, ev, want)
		}
	}
}

// FuzzBus replays a byte-coded script of publishes to windows 0-2,
// subscribes (window filter, resume seq: 0, past the end, lapped, or
// anywhere) and reads against a four-event bus, and checks every read
// against an oracle that keeps every event ever published: a read
// returns the next event of the reader's window after its cursor, or
// one gap marker counting the events the history lapped it by.
func FuzzBus(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 2, 0, 0, 2, 0, 2, 0})
	f.Add([]byte{1, 4, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 2, 0, 2, 0, 1, 7, 2, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 1, 11, 1, 6, 2, 0, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		const hist = 4
		b := NewSized(hist)
		var all []Event // the oracle: every event ever published
		type reader struct {
			sub  *Sub
			win  int
			next uint64 // the oracle's cursor: seq of the next event to read
		}
		var readers []*reader
		defer func() {
			for _, r := range readers {
				r.sub.Close()
			}
		}()
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%3, script[i+1]
			seq := uint64(len(all))
			switch op {
			case 0: // publish
				win := int(arg % 3)
				ev := Event{Seq: seq + 1, Window: win, Kind: "body", Detail: strconv.Itoa(i)}
				if got := b.Publish(win, ev.Kind, ev.Detail); got != ev.Seq {
					t.Fatalf("op %d: Publish = seq %d, want %d", i, got, ev.Seq)
				}
				all = append(all, ev)
				for _, r := range readers {
					if (r.win == 0 || r.win == win) && len(r.sub.wake) == 0 {
						t.Fatalf("op %d: window %d reader not woken by a window %d event", i, r.win, win)
					}
				}
				if got, want := b.History(), all[max(0, len(all)-hist):]; !slices.Equal(got, want) {
					t.Fatalf("op %d: History = %v, want %v", i, got, want)
				}
			case 1: // subscribe
				win := int(arg % 3)
				var since uint64
				switch arg / 3 % 4 {
				case 1: // past the end
					since = seq + 1 + uint64(arg/12)
				case 2: // lapped, once more than hist+1 events are out
					since = 1
				case 3: // anywhere in the stream so far
					since = uint64(arg/12) % (seq + 1)
				}
				r := &reader{sub: b.Subscribe(win, since), win: win, next: since + 1}
				if since == 0 || since > seq {
					r.next = seq + 1
				}
				readers = append(readers, r)
			case 2: // read
				if len(readers) == 0 {
					continue
				}
				r := readers[int(arg)%len(readers)]
				var want Event
				wantOK := false
				if oldest := seq - min(seq, hist) + 1; r.next < oldest {
					want = Event{Kind: KindGap, Detail: fmt.Sprintf("%d missed", oldest-r.next)}
					wantOK, r.next = true, oldest
				}
				for ; !wantOK && r.next <= seq; r.next++ {
					if ev := all[r.next-1]; r.win == 0 || ev.Window == r.win {
						want, wantOK = ev, true
					}
				}
				got, ok := r.sub.TryNext()
				if ok != wantOK || got != want {
					t.Fatalf("op %d: window %d reader read %+v,%v, want %+v,%v", i, r.win, got, ok, want, wantOK)
				}
			}
		}
	})
}
