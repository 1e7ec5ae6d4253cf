package core

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/text"
	"repro/internal/vfs"
)

// ExecuteAt executes the text in [q0, q1) of the given subwindow, the
// action of releasing the middle button. A null selection expands to the
// whole surrounding word (the rule of defaults: "a middle mouse button
// click anywhere in a word [is] a selection of the whole word"); a
// non-null selection "is always taken literally".
func (h *Help) ExecuteAt(w *Window, sub int, q0, q1 int) {
	h.mu.Lock()
	p := h.executeAt(w, sub, q0, q1)
	h.mu.Unlock()
	h.await(p)
}

func (h *Help) executeAt(w *Window, sub int, q0, q1 int) *proc {
	buf := w.Buffer(sub)
	if q0 == q1 {
		q0, q1 = expandWord(buf, q0)
	}
	cmd := buf.Slice(q0, q1-q0)
	return h.execute(w, cmd)
}

// Execute runs a command string in the context of window w: built-ins by
// name (capitalized by convention; names ending in ! are window operations
// taking no arguments), anything else as an external command under the
// context rules.
//
// Execute is synchronous: an external command runs in its own goroutine,
// but Execute waits for it to finish, for its output to land in Errors,
// and for the sweep that journals that output, so scripted sessions and
// tests stay deterministic and a journal flushed after Execute holds the
// whole command. Start is the fire-and-forget variant; gesture dispatch
// is asynchronous too.
func (h *Help) Execute(w *Window, cmd string) {
	h.mu.Lock()
	p := h.execute(w, cmd)
	h.mu.Unlock()
	h.await(p)
}

// await waits for an external command launched by Execute or ExecuteAt
// (nil for a built-in) to be reaped. The reap closes p.done inside a
// drainer batch, before the batch's sweep; the drainer holds the actor
// lock through that sweep, so taking the lock once more waits for it.
func (h *Help) await(p *proc) {
	if p == nil {
		return
	}
	<-p.done
	h.mu.Lock()
	h.mu.Unlock()
}

// Start launches cmd in window w's context without waiting for it to
// finish. Its output streams into Errors as it is produced.
func (h *Help) Start(w *Window, cmd string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.execute(w, cmd)
}

// execute is the under-lock twin of Execute. It returns the launched
// proc for external commands, nil for builtins, so wrappers can decide
// whether to wait.
func (h *Help) execute(w *Window, cmd string) *proc {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return nil
	}
	// A panicking command (or tool) must not take the session down:
	// recover, journal what we know, report the fault. The sweep runs
	// after the recovery so whatever state the command did reach is
	// journaled consistently.
	defer h.JournalSweep()
	defer h.recoverPanic("exec " + fields[0])
	if fields[0] != "Exit" {
		// Any other command disarms a pending two-step Exit.
		h.exitPending = false
	}
	h.mCommands.Inc()
	h.Notify.Publish(winID(w), "exec", fields[0])
	var sp *obs.ActiveSpan
	if h.ins.on {
		sp = h.Obs.StartSpan("exec", fields[0])
	}
	builtin := true
	var p *proc
	switch fields[0] {
	case "Cut":
		h.cut()
	case "Paste":
		h.paste()
	case "Snarf":
		h.snarfSel()
	case "New":
		h.newWindowIn(h.selectionColumn())
	case "Exit":
		h.exitCmd()
	case "Kill":
		h.killCmd(fields[1:])
	case "Open":
		h.openCmd(w, fields[1:])
	case "Write":
		name := ""
		if len(fields) > 1 {
			name = h.absPath(w, fields[1])
		}
		target := w
		if cw, _ := h.current(); name == "" && cw != nil {
			target = cw
		}
		if err := h.put(target, name); err != nil {
			h.appendErrors(fmt.Sprintf("Write: %v\n", err))
		}
	case "Pattern":
		h.patternCmd(fields[1:])
	case "Text":
		// Preserve the argument's internal spacing: everything after the
		// command word, minus one separating space.
		rest := strings.TrimPrefix(strings.TrimLeft(cmd, " \t"), "Text")
		rest = strings.TrimPrefix(rest, " ")
		h.textCmd(rest)
	case "Undo":
		// An extension the paper lists as overdue future work.
		if cw, _ := h.current(); cw != nil {
			cw.Body.Undo()
			cw.Sel[SubBody] = clampSel(cw.Sel[SubBody], cw.Body.Len())
			cw.RefreshTag()
		}
	case "Redo":
		if cw, _ := h.current(); cw != nil {
			cw.Body.Redo()
			cw.Sel[SubBody] = clampSel(cw.Sel[SubBody], cw.Body.Len())
			cw.RefreshTag()
		}
	case "Close!":
		// "Commands ending in an exclamation mark take no arguments; they
		// are window operations that apply to the window in which they
		// are executed." Commands launched from the window are killed
		// visibly first, so they don't stream into a vanished context.
		h.killProcsForWindow(w)
		h.closeWindow(w)
	case "Get!":
		if err := h.get(w); err != nil {
			h.appendErrors(fmt.Sprintf("Get!: %v\n", err))
		}
	case "Put!":
		if err := h.put(w, ""); err != nil {
			h.appendErrors(fmt.Sprintf("Put!: %v\n", err))
		}
	case "Send":
		// Another future-work item ("support for traditional shell
		// windows"): Send runs the window's last line (or the current
		// selection, if any) as a shell command in the window's directory
		// context and appends the output to the body, making any window a
		// typescript.
		h.sendCmd(w)
	case "Clone!":
		// An extension from the paper's future-work list ("multiple
		// windows per file"): a second window on the same file, sharing
		// nothing but the name, so two regions can be viewed at once.
		h.cloneCmd(w)
	case "Metrics":
		// Observability through the same interface as everything else:
		// open the stats file helpfs serves, reloaded on each execution.
		h.metricsCmd()
	case "Watch":
		// Everything after the command word, spacing preserved.
		h.watchCmd(w, strings.TrimPrefix(strings.TrimPrefix(strings.TrimLeft(cmd, " \t"), "Watch"), " "))
	default:
		builtin = false
		p = h.runExternal(w, cmd, fields)
	}
	if builtin {
		h.ins.execBuiltin.Inc()
	} else {
		h.ins.execExternal.Inc()
	}
	h.ins.execHist.Observe(sp.End())
	return p
}

// exitCmd implements Exit with guards for work in flight: if any named
// file window is Modified, or any external command is still running, the
// first Exit refuses and lists them in Errors; an immediately repeated
// Exit kills the commands visibly and proceeds anyway. Scratch (unnamed)
// windows, directory listings, and the Errors window itself have nothing
// a Put! could save, so they never block exit.
func (h *Help) exitCmd() {
	var dirty []*Window
	for _, w := range h.windows() {
		if w.IsDir || w == h.errors || w.FileName() == "" {
			continue
		}
		if w.Body.Modified() {
			dirty = append(dirty, w)
		}
	}
	live := h.procsInfo()
	if (len(dirty) == 0 && len(live) == 0) || h.exitPending {
		if len(live) > 0 {
			h.appendErrors(fmt.Sprintf("Exit: killing %d running command(s)\n", len(live)))
			h.killAllProcs()
		}
		h.exited.Store(true)
		return
	}
	h.exitPending = true
	var b strings.Builder
	if len(dirty) > 0 {
		b.WriteString("Exit: unsaved changes; Exit again to discard:\n")
		for _, w := range dirty {
			fmt.Fprintf(&b, "\t%s\n", w.FileName())
		}
	}
	if len(live) > 0 {
		b.WriteString("Exit: commands still running; Exit again to kill:\n")
		for _, p := range live {
			fmt.Fprintf(&b, "\t%s\n", p.Name)
		}
	}
	h.appendErrors(b.String())
}

// sendCmd implements the Send builtin: the shell-window behaviour. It
// runs the command synchronously under the actor lock — output lands in
// the window itself, not Errors, so there is nothing to stream — with
// the raw namespace view (the serialized view would self-deadlock).
func (h *Help) sendCmd(w *Window) {
	line := ""
	if cw, csub := h.current(); cw != nil && csub == SubBody && !cw.Sel[SubBody].Empty() {
		w = cw
		line = cw.SelectedText(SubBody)
	} else {
		line = lastNonEmptyLine(w.Body)
	}
	line = strings.TrimSpace(line)
	if line == "" {
		h.appendErrors("Send: nothing to send\n")
		return
	}
	var out bytes.Buffer
	ctx := h.Shell.NewContext(&out, &out)
	ctx.FS = h.FS
	ctx.Dir = w.Dir()
	h.setHelpsel(ctx)
	h.Shell.Run(ctx, line)
	// Typescript behaviour: output lands in the window itself, after a
	// newline if the body does not end with one.
	body := w.Body
	if body.Len() > 0 && body.At(body.Len()-1) != '\n' {
		body.Insert(body.Len(), "\n")
	}
	body.Insert(body.Len(), out.String())
	body.Commit()
	w.scrollTo(body.Len())
	if !w.IsDir {
		w.RefreshTag()
	}
}

// lastNonEmptyLine walks b's lines back from the last and returns the
// first that is not blank, reading only the lines it visits.
func lastNonEmptyLine(b *text.Buffer) string {
	for ln := b.NLines(); ln >= 1; ln-- {
		q0 := b.LineStart(ln)
		if line := b.Slice(q0, b.LineEnd(ln)-q0); strings.TrimSpace(line) != "" {
			return line
		}
	}
	return ""
}

// cloneCmd opens an additional window on w's file.
func (h *Help) cloneCmd(w *Window) {
	name := w.FileName()
	if name == "" {
		h.appendErrors("Clone!: window has no file name\n")
		return
	}
	if err := h.checkMem(w.Body.MemRunes()); err != nil {
		h.appendErrors(fmt.Sprintf("Clone!: %v\n", err))
		return
	}
	nw := h.newWindowIn(h.selectionColumn())
	nw.IsDir = w.IsDir
	// Structural clone: pieces and indexes copy, page data stays shared
	// and lazy, so cloning a paged gigabyte window never materializes
	// it (and a mem window copies runes once instead of encoding to a
	// string and decoding back).
	nw.Body.AdoptClone(w.Body)
	if w.Body.Modified() {
		nw.Body.SetDirty()
	}
	nw.SetNameTag(name)
	nw.fileGen = w.fileGen
	nw.bodyOrg = w.bodyOrg
	nw.Sel[SubBody] = w.Sel[SubBody]
}

// openCmd implements Open with the paper's default rules. With arguments,
// each is opened (name[:addr]), relative names resolved against the
// executing window's directory. With no argument, "it uses the file name
// containing the most recent selection", expanding a null selection to the
// surrounding file name and resolving relative names against the tag of
// the window containing the selection.
func (h *Help) openCmd(w *Window, args []string) {
	ctxWin := w
	if len(args) == 0 {
		cw, csub := h.current()
		if cw == nil {
			h.appendErrors("Open: no selection\n")
			return
		}
		buf := cw.Buffer(csub)
		sel := cw.Sel[csub]
		var name string
		if sel.Empty() {
			q0, q1 := expandFilename(buf, sel.Q0)
			name = buf.Slice(q0, q1-q0)
		} else {
			name = buf.Slice(sel.Q0, sel.Q1-sel.Q0)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			h.appendErrors("Open: no file name at selection\n")
			return
		}
		args = []string{name}
		ctxWin = cw
	}
	for _, arg := range args {
		name, addr := SplitAddr(arg)
		name = h.absPathIn(ctxWin, name)
		if _, err := h.openFile(name, addr); err != nil {
			h.appendErrors(fmt.Sprintf("Open: %v\n", err))
		}
	}
}

// patternCmd searches the current window's body for a literal pattern,
// starting after the current selection and wrapping, then selects and
// shows the match. With no argument the snarf buffer is the pattern.
func (h *Help) patternCmd(args []string) {
	cw, _ := h.current()
	if cw == nil {
		h.appendErrors("Pattern: no current window\n")
		return
	}
	pat := strings.Join(args, " ")
	if pat == "" {
		pat = h.snarf
	}
	if pat == "" {
		h.appendErrors("Pattern: no pattern\n")
		return
	}
	body := cw.Body
	idx := body.Index(pat, cw.Sel[SubBody].Q1, body.Len())
	if idx < 0 {
		idx = body.Index(pat, 0, body.Len()) // wrap
	}
	if idx < 0 {
		h.appendErrors(fmt.Sprintf("Pattern: %q not found\n", pat))
		return
	}
	cw.Sel[SubBody] = Selection{idx, idx + len([]rune(pat))}
	cw.scrollTo(idx)
	h.setCurrent(cw, SubBody)
}

// textCmd types its argument over the current selection, leaving the
// insertion selected, so text can be entered without the keyboard.
func (h *Help) textCmd(s string) {
	cw, csub := h.current()
	if cw == nil {
		return
	}
	sel := cw.Sel[csub]
	buf := cw.Buffer(csub)
	buf.Commit()
	if !sel.Empty() {
		buf.Delete(sel.Q0, sel.Q1-sel.Q0)
	}
	buf.Insert(sel.Q0, s)
	buf.Commit()
	cw.Sel[csub] = Selection{sel.Q0, sel.Q0 + len([]rune(s))}
	if csub == SubBody && !cw.IsDir {
		cw.RefreshTag()
	}
}

// runExternal launches an external command under the context rules: "if
// the tag line of the window containing the command has a file name and
// the command does not begin with a slash, the directory of the file will
// be prepended to the command. If that command cannot be found locally, it
// will be searched for in the standard directory of program binaries. The
// standard input of the commands is connected to an empty file; the
// standard and error outputs are directed to ... Errors."
//
// The command runs in its own goroutine; output streams into Errors
// incrementally through the apply queue. $helpsel and any glob expansion
// are resolved here, under the actor lock, so the command sees the
// selection as it was at launch — a mid-command selection change cannot
// race a tool reading $helpsel. Runs under the actor lock; returns the
// registered proc.
func (h *Help) runExternal(w *Window, cmd string, fields []string) *proc {
	dir := w.Dir()
	out := procWriter{h}
	ctx := h.Shell.NewContext(out, out)
	// Name resolution and glob expansion below happen while holding the
	// lock, so they must use the raw view; the context is switched to the
	// serialized view before the goroutine starts.
	ctx.FS = h.FS
	ctx.Dir = dir
	h.setHelpsel(ctx)
	ctx.Kill = &shell.KillFlag{}
	ctx.Spawn = h.spawnBg

	// The paper lists "syntax for shell-like functionality such as I/O
	// redirection" as overdue; we provide it: a command containing shell
	// metacharacters (including both quote styles, so the paper's own
	// example "grep '^main' /sys/src/cmd/help/*.c" parses properly, and
	// &, so commands can background) runs as an rc script in the
	// window's directory context.
	if strings.ContainsAny(cmd, "|><`;'$\"&") {
		ctx.FS = h.safeFS
		return h.startProc(cmd, w.ID, ctx, func(c *shell.Context) int {
			return h.Shell.Run(c, cmd)
		})
	}

	name := fields[0]
	if !strings.HasPrefix(name, "/") {
		local := vfs.Clean(dir + "/" + name)
		if h.Shell.IsProgram(local) || h.FS.Exists(local) {
			name = local
		}
	}
	argv := []string{name}
	for _, a := range fields[1:] {
		argv = append(argv, h.Shell.ExpandGlobArg(ctx, a)...)
	}
	ctx.FS = h.safeFS
	return h.startProc(cmd, w.ID, ctx, func(c *shell.Context) int {
		return h.Shell.RunCommand(c, argv)
	})
}

// setHelpsel passes the current selection to the tool the way the paper
// describes: "help passes to an application the file and character offset
// of the mouse position ... through an environment variable, helpsel."
// The format is "windowID:q0,q1". Called under the actor lock at launch
// time, so the value is a snapshot: later selection changes don't leak
// into a running command.
func (h *Help) setHelpsel(ctx *shell.Context) {
	cw, csub := h.current()
	if cw == nil {
		return
	}
	sel := cw.Sel[csub]
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:%d,%d", cw.ID, sel.Q0, sel.Q1)})
}

// current is the under-lock twin of Current.
func (h *Help) current() (*Window, int) { return h.curWin, h.curSub }

// absPath resolves a possibly-relative file name against w's directory.
func (h *Help) absPath(w *Window, name string) string {
	return h.absPathIn(w, name)
}

func (h *Help) absPathIn(w *Window, name string) string {
	if strings.HasPrefix(name, "/") {
		return vfs.Clean(name)
	}
	return vfs.Clean(w.Dir() + "/" + name)
}

// SplitAddr splits "name:addr" where addr is a line number (help.c:27),
// a character address (#123), or a pattern (/pat/) — the paper's
// error(1)-style syntax plus the "general locations" it mentions. Text
// with no address suffix returns addr "".
func SplitAddr(s string) (name, addr string) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 || i == len(s)-1 {
		return s, ""
	}
	suffix := s[i+1:]
	if isLineNumber(suffix) || strings.HasPrefix(suffix, "#") || strings.HasPrefix(suffix, "/") {
		return s[:i], suffix
	}
	return s, ""
}

func isLineNumber(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// expandWord grows a null selection at off to the surrounding run of
// non-whitespace, the default for execution.
func expandWord(buf *text.Buffer, off int) (int, int) {
	return expandClass(buf, off, func(r rune) bool { return !unicode.IsSpace(r) })
}

// expandFilename grows a null selection at off to the surrounding file
// name: the rule of automation ("it should be good enough just to point at
// a file name"). The character class covers path characters plus the
// :addr suffix.
func expandFilename(buf *text.Buffer, off int) (int, int) {
	return expandClass(buf, off, func(r rune) bool {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
		switch r {
		case '.', '/', '_', '-', '+', ':', '#':
			return true
		}
		return false
	})
}

// expandClass grows [off, off) to the maximal run of runes satisfying ok.
func expandClass(buf *text.Buffer, off int, ok func(rune) bool) (int, int) {
	n := buf.Len()
	if off > n {
		off = n
	}
	q0, q1 := off, off
	for q0 > 0 && ok(buf.At(q0-1)) {
		q0--
	}
	for q1 < n && ok(buf.At(q1)) {
		q1++
	}
	return q0, q1
}
