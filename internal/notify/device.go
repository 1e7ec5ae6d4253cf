package notify

import (
	"fmt"
	"io"
	"time"

	"repro/internal/vfs"
)

// Device adapts a Bus to a vfs.Device: an event file. helpfs registers
// one per window (/mnt/help/<n>/event) and one global (/mnt/help/log);
// sessiond serves the daemon-level stream the same way.
//
// A plain open reads the events published after the open, one line
// each, without ever blocking — vfs drains device reads under the
// namespace lock, so a read that parked there would stall the whole
// session. When nothing new has arrived the handle reports EOF; `cat`
// sees an empty file, not a hang. Blocking arrives through the
// vfs.WaitDevice extension, which vfs calls outside the namespace lock.
type Device struct {
	Bus *Bus
	Win int // > 0: only this window's events; 0: everything
}

// OpenDevice opens the stream for reading. Event files are read-only.
func (d Device) OpenDevice(mode int) (vfs.DeviceFile, error) {
	if mode&(vfs.OWRITE|vfs.ORDWR) != 0 {
		return nil, fmt.Errorf("event file is read-only: %w", vfs.ErrPerm)
	}
	return &eventFile{sub: d.Bus.Subscribe(d.Win, 0)}, nil
}

// ReadWait implements vfs.WaitDevice: the blocking, resumable read the
// srvnet readwait op and local watchers use. It is called without the
// namespace lock held and parks on the bus itself.
func (d Device) ReadWait(since uint64, stop <-chan struct{}, timeout time.Duration) ([]byte, uint64, error) {
	evs, next, err := d.Bus.ReadSince(d.Win, since, stop, timeout)
	if err != nil {
		return nil, next, err
	}
	var buf []byte
	for _, ev := range evs {
		buf = append(buf, ev.Line()...)
		buf = append(buf, '\n')
	}
	return buf, next, nil
}

// eventFile is one open handle: a subscription drained sequentially.
// Reads ignore the byte offset — the stream has no random access.
type eventFile struct {
	sub     *Sub
	pending []byte
}

func (f *eventFile) ReadAt(p []byte, off int64) (int, error) {
	if len(f.pending) == 0 {
		for {
			ev, ok := f.sub.TryNext()
			if !ok {
				break
			}
			f.pending = append(f.pending, ev.Line()...)
			f.pending = append(f.pending, '\n')
		}
		if len(f.pending) == 0 {
			return 0, io.EOF
		}
	}
	n := copy(p, f.pending)
	f.pending = f.pending[n:]
	return n, nil
}

func (f *eventFile) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("event file is read-only: %w", vfs.ErrPerm)
}

func (f *eventFile) Close() error {
	f.sub.Close()
	return nil
}
