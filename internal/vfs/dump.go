package vfs

import (
	"path"
	"sort"
)

// MutKind enumerates the namespace mutations the journal hook observes.
type MutKind int

const (
	MutWrite MutKind = iota
	MutAppend
	MutRemove
	MutMkdir
	MutBind
)

// SetOnMutate installs (or, with nil, removes) the mutation observer: a
// callback invoked after every successful non-device namespace mutation.
// For MutWrite/MutAppend, data is the written bytes; for MutBind, aux is
// the mountpoint and flag the bind flag. Device writes are excluded —
// they are messages to live services (window bodies, ctl files), not
// state the namespace owns, and replaying them would double-apply.
func (fs *FS) SetOnMutate(fn func(kind MutKind, p string, data []byte, aux string, flag int)) {
	fs.lock()
	defer fs.unlock()
	fs.st.onMutate = fn
}

func (fs *FS) mutated(kind MutKind, p string, data []byte, aux string, flag int) {
	if fs.st.onMutate != nil {
		fs.st.onMutate(kind, Clean(p), data, aux, flag)
	}
}

// DumpEntry is one file or directory in a namespace snapshot.
type DumpEntry struct {
	Path string
	Dir  bool
	Data []byte // file contents; nil for directories
}

// Dump snapshots every non-device file and directory plus the bind
// table, in sorted path order. Devices are skipped: they are live
// endpoints re-registered by whoever owns them, not persistable state.
// Sealed subtrees are skipped too: they are immutable template state
// grafted from elsewhere, reconstructed by whoever builds the
// namespace, and persisting them would bloat every checkpoint with data
// that cannot have changed.
func (fs *FS) Dump() ([]DumpEntry, map[string][]string) {
	fs.lock()
	defer fs.unlock()
	var entries []DumpEntry
	var walk func(p string, n *node)
	walk = func(p string, n *node) {
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			cp := path.Join(p, name)
			switch {
			case c.device != nil || c.sealed:
				// skip
			case c.dir:
				entries = append(entries, DumpEntry{Path: cp, Dir: true})
				walk(cp, c)
			default:
				entries = append(entries, DumpEntry{Path: cp, Data: append([]byte(nil), c.data...)})
			}
		}
	}
	walk("/", fs.st.root)
	binds := make(map[string][]string, len(fs.st.binds))
	for mp, srcs := range fs.st.binds {
		binds[mp] = append([]string(nil), srcs...)
	}
	return entries, binds
}

// Reset empties the namespace for a journal replay: every file and
// directory goes, and the bind table with them. Device nodes, sealed
// subtrees and the directories that shelter them stay, for the reasons
// Dump skips them. The mutation observer hears nothing.
func (fs *FS) Reset() {
	fs.lock()
	defer fs.unlock()
	var prune func(n *node)
	prune = func(n *node) {
		for name, c := range n.children {
			switch {
			case c.device != nil || c.sealed:
			case c.dir:
				prune(c)
				if len(c.children) == 0 {
					delete(n.children, name)
				}
			default:
				delete(n.children, name)
			}
		}
	}
	prune(fs.st.root)
	fs.st.binds = map[string][]string{}
}
