package helpfs

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// kindObs instruments one kind of served file (tag, body, bodyapp,
// ctl, index): operation counts plus an open-to-close latency
// histogram. A nil kindObs (no registry installed) is a no-op, and the
// handles carry it as a plain field so instrumentation adds no
// allocations to the per-open path.
type kindObs struct {
	opens  *obs.Counter
	reads  *obs.Counter
	writes *obs.Counter
	lat    *obs.Histogram
}

// open counts an open and starts the latency clock; the zero time it
// returns when uninstrumented makes close a no-op too.
func (k *kindObs) open() time.Time {
	if k == nil {
		return time.Time{}
	}
	k.opens.Inc()
	return time.Now()
}

func (k *kindObs) read() {
	if k != nil {
		k.reads.Inc()
	}
}

func (k *kindObs) write() {
	if k != nil {
		k.writes.Inc()
	}
}

func (k *kindObs) close(t0 time.Time) {
	if k == nil || t0.IsZero() {
		return
	}
	k.lat.Observe(time.Since(t0))
}

// initObs resolves the per-kind instruments from the help instance's
// registry. With no registry the maps stay empty and every lookup
// yields a nil (no-op) kindObs.
func (s *Service) initObs() {
	s.kinds = map[string]*kindObs{}
	s.histos = map[string]bool{}
	r := s.h.Obs
	if r == nil {
		return
	}
	for _, kind := range []string{"tag", "body", "bodyapp", "ctl", "index"} {
		s.kinds[kind] = &kindObs{
			opens:  r.Counter("helpfs." + kind + ".opens"),
			reads:  r.Counter("helpfs." + kind + ".reads"),
			writes: r.Counter("helpfs." + kind + ".writes"),
			lat:    r.Histogram("helpfs." + kind),
		}
	}
}

// registerObsFiles serves the registry through the file interface:
//
//	/mnt/help/stats         flat `key value` lines, every counter/gauge
//	/mnt/help/trace         the spans still in the bus history, one per line
//	/mnt/help/histo/<name>  one latency histogram, flat text
//
// so a shell script reads a latency histogram the same way it reads a
// window body.
func (s *Service) registerObsFiles() error {
	r := s.h.Obs
	if r == nil {
		return nil
	}
	if err := s.fs.RegisterDevice(s.root+"/stats", readDevice{content: r.StatsText}); err != nil {
		return err
	}
	if err := s.fs.RegisterDevice(s.root+"/trace", readDevice{content: s.traceText}); err != nil {
		return err
	}
	if err := s.fs.MkdirAll(s.root + "/histo"); err != nil {
		return err
	}
	return s.SyncHistograms()
}

// traceText renders the session bus's "trace" events, the spans the
// registry handed to it, oldest first as "<seq> <name> <dur>us <attrs>"
// lines: the byte content of /mnt/help/trace. The first line stamps the
// newest and oldest seqs the history holds, "# seq <n> oldest <m>": a
// reader whose previous read was stamped seq p has lost events, spans
// among them possibly, iff m > p+1.
func (s *Service) traceText() string {
	evs := s.h.Notify.History()
	var newest, oldest uint64
	if len(evs) > 0 {
		newest, oldest = evs[len(evs)-1].Seq, evs[0].Seq
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# seq %d oldest %d\n", newest, oldest)
	for _, ev := range evs {
		if ev.Kind == "trace" {
			fmt.Fprintf(&b, "%d %s\n", ev.Seq, ev.Detail)
		}
	}
	return b.String()
}

// SyncHistograms materializes /mnt/help/histo/<name> for histograms
// created since Attach (wiring a remote client adds srvnet.* ones).
// Call it from the event loop, like every other namespace mutation.
func (s *Service) SyncHistograms() error {
	r := s.h.Obs
	if r == nil {
		return nil
	}
	for _, name := range r.HistogramNames() {
		if s.histos[name] {
			continue
		}
		hist := r.Histogram(name)
		if err := s.fs.RegisterDevice(s.root+"/histo/"+name, readDevice{content: hist.Text}); err != nil {
			return err
		}
		s.histos[name] = true
	}
	return nil
}
