package journal

import (
	"errors"
	"strconv"
	"testing"
)

func TestLockExcludesSecondHolder(t *testing.T) {
	mem := NewMemFS()
	l1, err := AcquireLock(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireLock(mem); !errors.Is(err, ErrLocked) {
		t.Fatalf("second acquire: err = %v, want ErrLocked", err)
	}
	if err := l1.Release(); err != nil {
		t.Fatal(err)
	}
	l2, err := AcquireLock(mem)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	l2.Release()
	l2.Release() // idempotent
}

func TestLockStealsFromDeadHolder(t *testing.T) {
	mem := NewMemFS()
	// A pid far above any kernel's pid_max: the holder cannot be alive.
	mem.WriteFile(LockName, []byte(strconv.Itoa(1<<30)+"\n"))
	l, err := AcquireLock(mem)
	if err != nil {
		t.Fatalf("acquire over stale lock: %v", err)
	}
	l.Release()
}

func TestLockCoexistsWithJournal(t *testing.T) {
	mem := NewMemFS()
	l, err := AcquireLock(mem)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	w, err := Open(mem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Op{Kind: OpSplice, Win: 1, Str1: "x"})
	w.Checkpoint([]Op{{Kind: OpSnarf, Str1: "snap"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(mem)
	if err != nil {
		t.Fatalf("Load with lockfile present: %v", err)
	}
	if len(st.Checkpoint) != 1 || st.Checkpoint[0].Str1 != "snap" {
		t.Fatalf("checkpoint = %+v", st.Checkpoint)
	}
}
