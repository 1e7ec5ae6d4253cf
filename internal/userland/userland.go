// Package userland provides the Unix-flavored utilities the help paper's
// session depends on — cat, grep, cp, sed, ls, wc and friends — implemented
// as shell builtins over the vfs namespace, plus the mk build tool used in
// Figure 12 ("execute mk in /help/cbr to compile the program").
//
// The utilities implement the subsets the paper exercises rather than full
// POSIX behaviour; each doc comment states the supported flags. grep in
// particular matters to the evaluation: Table T3 compares the C browser's
// uses command against "the regular Unix command grep n /usr/rob/src/help/*.c",
// which reports "every occurrence of the letter n in the program".
package userland

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/shell"
	"repro/internal/vfs"
)

// Install registers every utility in sh.
func Install(sh *shell.Shell) {
	sh.Register("cat", Cat)
	sh.Register("cp", Cp)
	sh.Register("grep", Grep)
	sh.Register("ls", Ls)
	sh.Register("lc", Ls) // Plan 9's columnated ls; same output here
	sh.Register("sed", Sed)
	sh.Register("wc", Wc)
	sh.Register("sort", Sort)
	sh.Register("uniq", Uniq)
	sh.Register("head", Head)
	sh.Register("tail", Tail)
	sh.Register("touch", Touch)
	sh.Register("rm", Rm)
	sh.Register("mkdir", Mkdir)
	sh.Register("date", Date)
	sh.Register("sleep", Sleep)
	sh.Register("mk", Mk)
	sh.Register("mktouched", MkTouched)
	sh.Register("fortune", Fortune)
	sh.Register("news", News)
	sh.Register("cpp", Cpp)
	sh.Register("tee", Tee)
	sh.Register("basename", Basename)
}

// resolvePath makes a command argument absolute against the context dir.
func resolvePath(ctx *shell.Context, p string) string {
	if strings.HasPrefix(p, "/") {
		return vfs.Clean(p)
	}
	return vfs.Clean(ctx.Dir + "/" + p)
}

// Cat concatenates files (or standard input with no arguments).
func Cat(ctx *shell.Context, args []string) int {
	if len(args) == 1 {
		io.Copy(ctx.Stdout, ctx.Stdin)
		return 0
	}
	status := 0
	for _, a := range args[1:] {
		data, err := ctx.FS.ReadFile(resolvePath(ctx, a))
		if err != nil {
			ctx.Errorf("cat: %v", err)
			status = 1
			continue
		}
		ctx.Stdout.Write(data)
	}
	return status
}

// Cp copies one file to another: cp from to.
func Cp(ctx *shell.Context, args []string) int {
	if len(args) != 3 {
		ctx.Errorf("usage: cp from to")
		return 1
	}
	data, err := ctx.FS.ReadFile(resolvePath(ctx, args[1]))
	if err != nil {
		ctx.Errorf("cp: %v", err)
		return 1
	}
	dst := resolvePath(ctx, args[2])
	if ctx.FS.IsDir(dst) {
		base := args[1]
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		dst = vfs.Clean(dst + "/" + base)
	}
	if err := ctx.FS.WriteFile(dst, data); err != nil {
		ctx.Errorf("cp: %v", err)
		return 1
	}
	return 0
}

const (
	// grepParallelMin is the file size above which grep stops reading the
	// whole file and instead scans fixed ranges through FS.ReadAt, so a
	// gigabyte log costs a few chunks of memory, not the file.
	grepParallelMin = 4 << 20
	// grepChunk is the scan unit for such files; each chunk is an
	// independent job for the worker pool.
	grepChunk = 1 << 20
)

type grepOpts struct {
	numbers, namesOnly, count, invert bool
	re                                *regexp.Regexp
	// lit, when set, is a literal every match starts with (never with
	// -v): scan searches the text for it instead of visiting each line.
	lit []byte
	// whole reports a pattern that is nothing but lit, so a line holding
	// lit matches without running re.
	whole bool
}

// grepLine is one matched line of a chunk; rel is its 0-based index among
// the lines owned by that chunk, resolved to a global line number once
// every chunk's newline count is known. text is a copy: the chunk was
// read into its worker's reused buffer.
type grepLine struct {
	rel  int
	text []byte
}

// grepChunkRes is what scanning one chunk of a large file yields.
type grepChunkRes struct {
	lines []grepLine
	n     int // matched (or, with -v, non-matched) owned lines
	nl    int // newlines inside the chunk range, prefix-summed for -n
	preNl int // newlines between the range start and the first owned line
	err   error
}

// grepNextLine cuts the line starting at start out of data, returning it
// without its terminator (a trailing \r\n or \n) and the start of the next
// line, mirroring bufio.ScanLines.
func grepNextLine(data []byte, start int) ([]byte, int) {
	line := data[start:]
	next := len(data)
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
		next = start + j + 1
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, next
}

// scan calls fn for each selected line of slab that starts in
// [first, limit), with the line's 0-based index among the lines from
// first and its text without the terminator; fn returns false to stop.
// slab must hold every such line whole. With a literal, each step
// searches the rest of the slab for it, backs up to the start of the
// line holding it and runs the regexp on that line only; every other
// pattern (-i, alternations, -v) steps line by line.
func (o *grepOpts) scan(slab []byte, first, limit int, fn func(rel int, line []byte) bool) {
	for start, rel := first, 0; start < limit; rel++ {
		ls, end := start, 0 // the candidate line's start; the literal's end
		if o.lit != nil {
			j := bytes.Index(slab[start:], o.lit)
			if j < 0 {
				return
			}
			ls += bytes.LastIndexByte(slab[start:start+j], '\n') + 1
			if ls >= limit {
				return
			}
			rel += bytes.Count(slab[start:ls], nlByte)
			end = start + j + len(o.lit)
		}
		line, next := grepNextLine(slab, ls)
		if (o.whole && end <= ls+len(line) || o.re.Match(line) != o.invert) && !fn(rel, line) {
			return
		}
		start = next
	}
}

func writeGrepLine(out *bytes.Buffer, o *grepOpts, name string, showName bool, ln int, line []byte) {
	if showName {
		out.WriteString(name)
		out.WriteByte(':')
	}
	if o.numbers {
		out.WriteString(strconv.Itoa(ln))
		out.WriteByte(':')
	}
	out.Write(line)
	out.WriteByte('\n')
}

// grepScanAll greps one in-memory body (small files and stdin).
func grepScanAll(o *grepOpts, name string, data []byte, showName bool, out *bytes.Buffer) bool {
	n := 0
	o.scan(data, 0, len(data), func(rel int, line []byte) bool {
		n++
		if !o.namesOnly && !o.count {
			writeGrepLine(out, o, name, showName, rel+1, line)
		}
		return !o.namesOnly
	})
	if o.namesOnly {
		if n > 0 {
			fmt.Fprintln(out, name)
		}
	} else if o.count {
		prefix := ""
		if showName {
			prefix = name + ":"
		}
		fmt.Fprintln(out, prefix+strconv.Itoa(n))
	}
	return n > 0
}

// grepScanChunk greps chunk ci of a large file, reading it into the
// worker's buffer *buf, which it allocates on first use and reuses for
// every later chunk. A chunk owns the lines that start inside its range
// [lo, hi); it reads one byte before lo to decide whether lo itself
// starts a line, and reads past hi to the end of the last line it owns,
// so the scanner sees whole lines and finds a literal that crosses hi.
// Line numbers cannot be assigned yet — they need the newline counts of
// every earlier chunk — so matches are reported by index among the
// chunk's owned lines.
func grepScanChunk(ctx *shell.Context, o *grepOpts, path string, size int64, ci int, buf *[]byte) grepChunkRes {
	lo := int64(ci) * grepChunk
	hi := min(lo+grepChunk, size)
	readStart := max(lo-1, 0)
	if *buf == nil {
		*buf = make([]byte, 0, grepChunk+1+grepStep)
	}
	slab := (*buf)[:hi-readStart]
	n, _, err := ctx.FS.ReadAt(path, slab, readStart)
	if err != nil {
		return grepChunkRes{err: err}
	}
	if n < len(slab) {
		return grepChunkRes{err: fmt.Errorf("%s: file shrank during scan", path)}
	}
	var res grepChunkRes
	first := 0
	if lo > 0 {
		j := bytes.IndexByte(slab, '\n')
		if j < 0 {
			// The whole range is the middle of a line owned by an
			// earlier chunk.
			return res
		}
		first = j + 1
		if j > 0 {
			res.preNl = 1
		}
		res.nl = bytes.Count(slab[1:], nlByte)
	} else {
		res.nl = bytes.Count(slab, nlByte)
	}
	limit := len(slab)
	if first < limit && slab[limit-1] != '\n' && hi < size {
		slab, err = grepExtend(ctx, path, slab, readStart)
		*buf = slab[:0]
		if err != nil {
			return grepChunkRes{err: err}
		}
	}
	o.scan(slab, first, limit, func(rel int, line []byte) bool {
		res.n++
		if !o.namesOnly && !o.count {
			res.lines = append(res.lines, grepLine{rel: rel, text: bytes.Clone(line)})
		}
		return !o.namesOnly
	})
	return res
}

// grepStep is the first read past a chunk's end; each further read
// doubles, up to grepChunk.
const grepStep = 4 << 10

// grepExtend appends the file's bytes after slab, which starts at file
// offset off, until they hold a newline or reach end of file.
func grepExtend(ctx *shell.Context, path string, slab []byte, off int64) ([]byte, error) {
	for step := grepStep; ; step = min(2*step, grepChunk) {
		n0 := len(slab)
		slab = slices.Grow(slab, step)[:n0+step]
		n, _, err := ctx.FS.ReadAt(path, slab[n0:], off+int64(n0))
		slab = slab[:n0+n]
		if err != nil || n < step || bytes.IndexByte(slab[n0:], '\n') >= 0 {
			return slab, err
		}
	}
}

var nlByte = []byte{'\n'}

// grepFile is the per-argument unit of work and output.
type grepFile struct {
	display string
	path    string
	size    int64          // chunked scan when > 0
	chunks  []grepChunkRes // one per chunk, filled by workers
	out     bytes.Buffer
	hit     bool
	err     error
}

// Grep searches files (or stdin) for a regular expression. Supported
// flags: -n (line numbers), -i (case fold), -l (names only), -c (count),
// -v (invert). With more than one file, or with -n, matches are prefixed
// with the file name — the behaviour the uses-vs-grep comparison needs.
//
// The scan is parallel: one worker per CPU sweeps the argument list, and
// files above grepParallelMin are further split into chunk jobs, each read
// through FS.ReadAt into its worker's one reused buffer, so big logs grep
// at bounded memory. Output is assembled in argument order regardless of
// which worker finishes first.
func Grep(ctx *shell.Context, args []string) int {
	var numbers, fold, namesOnly, count, invert bool
	rest := args[1:]
	for len(rest) > 0 && strings.HasPrefix(rest[0], "-") && len(rest[0]) > 1 {
		for _, f := range rest[0][1:] {
			switch f {
			case 'n':
				numbers = true
			case 'i':
				fold = true
			case 'l':
				namesOnly = true
			case 'c':
				count = true
			case 'v':
				invert = true
			default:
				ctx.Errorf("grep: unknown flag -%c", f)
				return 2
			}
		}
		rest = rest[1:]
	}
	if len(rest) == 0 {
		ctx.Errorf("usage: grep [-nilcv] pattern [file ...]")
		return 2
	}
	pat := rest[0]
	if fold {
		pat = "(?i)" + pat
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		ctx.Errorf("grep: %v", err)
		return 2
	}
	o := &grepOpts{numbers: numbers, namesOnly: namesOnly, count: count, invert: invert, re: re}
	if lit, _ := re.LiteralPrefix(); lit != "" && !invert {
		// LiteralPrefix also calls ^lit$ complete, and a line holding
		// lit need not match that; only the bare literal skips re.
		o.lit, o.whole = []byte(lit), pat == regexp.QuoteMeta(lit)
	}
	names := rest[1:]
	if len(names) == 0 {
		data, err := io.ReadAll(ctx.Stdin)
		if err != nil {
			ctx.Errorf("grep: %v", err)
			return 2
		}
		var out bytes.Buffer
		hit := grepScanAll(o, "<stdin>", data, false, &out)
		ctx.Stdout.Write(out.Bytes())
		if hit {
			return 0
		}
		return 1
	}

	showName := len(names) > 1 || numbers
	files := make([]*grepFile, len(names))
	var jobs []func(buf *[]byte)
	for i, name := range names {
		f := &grepFile{display: name, path: resolvePath(ctx, name)}
		files[i] = f
		info, err := ctx.FS.Stat(f.path)
		if err == nil && !info.IsDir && info.Size >= grepParallelMin {
			f.size = info.Size
			nchunks := int((info.Size + grepChunk - 1) / grepChunk)
			f.chunks = make([]grepChunkRes, nchunks)
			for ci := 0; ci < nchunks; ci++ {
				ci := ci
				jobs = append(jobs, func(buf *[]byte) {
					f.chunks[ci] = grepScanChunk(ctx, o, f.path, f.size, ci, buf)
				})
			}
			continue
		}
		// Small files, devices, directories and stat failures all take
		// the whole-read path, which produces the canonical errors.
		jobs = append(jobs, func(*[]byte) {
			data, err := ctx.FS.ReadFile(f.path)
			if err != nil {
				f.err = err
				return
			}
			f.hit = grepScanAll(o, f.display, data, showName, &f.out)
		})
	}

	// Every job writes a distinct slot (f.out/f.err of its file, or one
	// chunks[ci]), so the pool needs no locking.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobc := make(chan func(buf *[]byte))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte // the chunk buffer, allocated by the first chunk job
			for job := range jobc {
				job(&buf)
			}
		}()
	}
	for _, job := range jobs {
		jobc <- job
	}
	close(jobc)
	wg.Wait()

	matched := false
	for _, f := range files {
		if f.err != nil {
			ctx.Errorf("grep: %v", f.err)
			continue
		}
		if f.chunks != nil {
			grepAssemble(o, f, showName)
			if f.err != nil {
				ctx.Errorf("grep: %v", f.err)
				continue
			}
		}
		matched = matched || f.hit
		ctx.Stdout.Write(f.out.Bytes())
	}
	if matched {
		return 0
	}
	return 1
}

// grepAssemble merges a chunked file's per-chunk results in order,
// turning chunk-relative match indices into global line numbers via a
// running prefix sum of newline counts.
func grepAssemble(o *grepOpts, f *grepFile, showName bool) {
	prefix := 0
	n := 0
	for i := range f.chunks {
		c := &f.chunks[i]
		if c.err != nil {
			f.err = c.err
			return
		}
		for _, ml := range c.lines {
			writeGrepLine(&f.out, o, f.display, showName, prefix+c.preNl+ml.rel+1, ml.text)
		}
		n += c.n
		prefix += c.nl
	}
	f.hit = n > 0
	if o.namesOnly {
		f.out.Reset()
		if f.hit {
			fmt.Fprintln(&f.out, f.display)
		}
		return
	}
	if o.count {
		prefixStr := ""
		if showName {
			prefixStr = f.display + ":"
		}
		fmt.Fprintln(&f.out, prefixStr+strconv.Itoa(n))
	}
}

// Ls lists a directory (or the context directory), one entry per line with
// directories slash-suffixed, matching help's directory-window rendering.
func Ls(ctx *shell.Context, args []string) int {
	dirs := args[1:]
	if len(dirs) == 0 {
		dirs = []string{ctx.Dir}
	}
	status := 0
	for _, d := range dirs {
		p := resolvePath(ctx, d)
		if !ctx.FS.IsDir(p) {
			if ctx.FS.Exists(p) {
				fmt.Fprintln(ctx.Stdout, d)
				continue
			}
			ctx.Errorf("ls: %s: does not exist", d)
			status = 1
			continue
		}
		ents, err := ctx.FS.ReadDir(p)
		if err != nil {
			ctx.Errorf("ls: %v", err)
			status = 1
			continue
		}
		for _, e := range ents {
			suffix := ""
			if e.IsDir {
				suffix = "/"
			}
			fmt.Fprintln(ctx.Stdout, e.Name+suffix)
		}
	}
	return status
}

// Sed implements the subset the paper's scripts use:
//
//	sed Nq          print the first N lines then quit ("sed 1q")
//	sed -n Np       print only line N
//	sed s/a/b/g?    substitute (first or all occurrences per line)
func Sed(ctx *shell.Context, args []string) int {
	quiet := false
	rest := args[1:]
	if len(rest) > 0 && rest[0] == "-n" {
		quiet = true
		rest = rest[1:]
	}
	if len(rest) == 0 {
		ctx.Errorf("usage: sed [-n] script [file]")
		return 1
	}
	script := rest[0]
	var in io.Reader = ctx.Stdin
	if len(rest) > 1 {
		data, err := ctx.FS.ReadFile(resolvePath(ctx, rest[1]))
		if err != nil {
			ctx.Errorf("sed: %v", err)
			return 1
		}
		in = strings.NewReader(string(data))
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	// Nq form.
	if strings.HasSuffix(script, "q") {
		if n, err := strconv.Atoi(strings.TrimSuffix(script, "q")); err == nil {
			for i := 0; i < n && sc.Scan(); i++ {
				fmt.Fprintln(ctx.Stdout, sc.Text())
			}
			return 0
		}
	}
	// Np form.
	if strings.HasSuffix(script, "p") {
		if n, err := strconv.Atoi(strings.TrimSuffix(script, "p")); err == nil {
			ln := 0
			for sc.Scan() {
				ln++
				if ln == n || !quiet {
					fmt.Fprintln(ctx.Stdout, sc.Text())
				}
				if ln == n && quiet {
					break
				}
			}
			return 0
		}
	}
	// s/a/b/ form.
	if strings.HasPrefix(script, "s") && len(script) > 1 {
		delim := string(script[1])
		parts := strings.Split(script[2:], delim)
		if len(parts) < 2 {
			ctx.Errorf("sed: bad substitution %q", script)
			return 1
		}
		re, err := regexp.Compile(parts[0])
		if err != nil {
			ctx.Errorf("sed: %v", err)
			return 1
		}
		global := len(parts) > 2 && strings.Contains(parts[2], "g")
		for sc.Scan() {
			line := sc.Text()
			if global {
				line = re.ReplaceAllString(line, parts[1])
			} else if loc := re.FindStringIndex(line); loc != nil {
				line = line[:loc[0]] + re.ReplaceAllString(line[loc[0]:loc[1]], parts[1]) + line[loc[1]:]
			}
			fmt.Fprintln(ctx.Stdout, line)
		}
		return 0
	}
	ctx.Errorf("sed: unsupported script %q", script)
	return 1
}

// Wc counts lines, words, and bytes of files or stdin.
func Wc(ctx *shell.Context, args []string) int {
	countOne := func(name string, data []byte) {
		lines := strings.Count(string(data), "\n")
		words := len(strings.Fields(string(data)))
		if name != "" {
			fmt.Fprintf(ctx.Stdout, "%7d %7d %7d %s\n", lines, words, len(data), name)
		} else {
			fmt.Fprintf(ctx.Stdout, "%7d %7d %7d\n", lines, words, len(data))
		}
	}
	if len(args) == 1 {
		data, _ := io.ReadAll(ctx.Stdin)
		countOne("", data)
		return 0
	}
	status := 0
	for _, a := range args[1:] {
		data, err := ctx.FS.ReadFile(resolvePath(ctx, a))
		if err != nil {
			ctx.Errorf("wc: %v", err)
			status = 1
			continue
		}
		countOne(a, data)
	}
	return status
}

// Sort sorts input lines lexically. Flag -r reverses.
func Sort(ctx *shell.Context, args []string) int {
	reverse := len(args) > 1 && args[1] == "-r"
	data, _ := io.ReadAll(ctx.Stdin)
	lines := splitLines(string(data))
	sort.Strings(lines)
	if reverse {
		for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
			lines[i], lines[j] = lines[j], lines[i]
		}
	}
	for _, l := range lines {
		fmt.Fprintln(ctx.Stdout, l)
	}
	return 0
}

// Uniq drops adjacent duplicate lines.
func Uniq(ctx *shell.Context, args []string) int {
	data, _ := io.ReadAll(ctx.Stdin)
	prev, first := "", true
	for _, l := range splitLines(string(data)) {
		if first || l != prev {
			fmt.Fprintln(ctx.Stdout, l)
		}
		prev, first = l, false
	}
	return 0
}

// Head prints the first N lines (default 10): head [-n N] [file].
func Head(ctx *shell.Context, args []string) int {
	n := 10
	rest := args[1:]
	if len(rest) >= 2 && rest[0] == "-n" {
		if v, err := strconv.Atoi(rest[1]); err == nil {
			n = v
		}
		rest = rest[2:]
	}
	var in io.Reader = ctx.Stdin
	if len(rest) > 0 {
		data, err := ctx.FS.ReadFile(resolvePath(ctx, rest[0]))
		if err != nil {
			ctx.Errorf("head: %v", err)
			return 1
		}
		in = strings.NewReader(string(data))
	}
	sc := bufio.NewScanner(in)
	for i := 0; i < n && sc.Scan(); i++ {
		fmt.Fprintln(ctx.Stdout, sc.Text())
	}
	return 0
}

// Tail prints the last N lines (default 10): tail [-n N] [file].
func Tail(ctx *shell.Context, args []string) int {
	n := 10
	rest := args[1:]
	if len(rest) >= 2 && rest[0] == "-n" {
		if v, err := strconv.Atoi(rest[1]); err == nil {
			n = v
		}
		rest = rest[2:]
	}
	var data []byte
	if len(rest) > 0 {
		var err error
		data, err = ctx.FS.ReadFile(resolvePath(ctx, rest[0]))
		if err != nil {
			ctx.Errorf("tail: %v", err)
			return 1
		}
	} else {
		data, _ = io.ReadAll(ctx.Stdin)
	}
	lines := splitLines(string(data))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	for _, l := range lines {
		fmt.Fprintln(ctx.Stdout, l)
	}
	return 0
}

// Touch creates files or bumps their modification stamp.
func Touch(ctx *shell.Context, args []string) int {
	status := 0
	for _, a := range args[1:] {
		p := resolvePath(ctx, a)
		data, err := ctx.FS.ReadFile(p)
		if err != nil {
			data = nil
		}
		if err := ctx.FS.WriteFile(p, data); err != nil {
			ctx.Errorf("touch: %v", err)
			status = 1
		}
	}
	return status
}

// Rm removes files.
func Rm(ctx *shell.Context, args []string) int {
	status := 0
	for _, a := range args[1:] {
		if err := ctx.FS.Remove(resolvePath(ctx, a)); err != nil {
			ctx.Errorf("rm: %v", err)
			status = 1
		}
	}
	return status
}

// Mkdir creates directories (always with parents, like mkdir -p).
func Mkdir(ctx *shell.Context, args []string) int {
	status := 0
	for _, a := range args[1:] {
		if a == "-p" {
			continue
		}
		if err := ctx.FS.MkdirAll(resolvePath(ctx, a)); err != nil {
			ctx.Errorf("mkdir: %v", err)
			status = 1
		}
	}
	return status
}

// Date prints the session date. The reproduction is deterministic: it
// prints the $date variable when set, else the date of the paper's
// recorded session, so golden screenshots are stable.
func Date(ctx *shell.Context, args []string) int {
	d := ctx.Getenv("date")
	if d == "" {
		d = "Tue Apr 16 19:30:00 EDT 1991"
	}
	fmt.Fprintln(ctx.Stdout, d)
	return 0
}

// Sleep pauses for the given number of seconds (fractions allowed),
// waking early when the command is killed. It exists so tests and users
// have a deliberately slow command that still answers Kill promptly.
func Sleep(ctx *shell.Context, args []string) int {
	if len(args) < 2 {
		ctx.Errorf("usage: sleep seconds")
		return 1
	}
	secs, err := strconv.ParseFloat(args[1], 64)
	if err != nil || secs < 0 {
		ctx.Errorf("sleep: bad interval %q", args[1])
		return 1
	}
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for time.Now().Before(deadline) {
		if ctx.Killed() {
			return 1
		}
		remain := time.Until(deadline)
		if remain > 5*time.Millisecond {
			remain = 5 * time.Millisecond
		}
		time.Sleep(remain)
	}
	return 0
}

// Fortune prints an aphorism from /lib/fortunes (first line), or a default.
func Fortune(ctx *shell.Context, args []string) int {
	if data, err := ctx.FS.ReadFile("/lib/fortunes"); err == nil {
		lines := splitLines(string(data))
		if len(lines) > 0 {
			fmt.Fprintln(ctx.Stdout, lines[0])
			return 0
		}
	}
	fmt.Fprintln(ctx.Stdout, "Simplicity is the ultimate sophistication.")
	return 0
}

// News prints /lib/news if present, the way terminals did at login.
func News(ctx *shell.Context, args []string) int {
	data, err := ctx.FS.ReadFile("/lib/news")
	if err != nil {
		return 0
	}
	ctx.Stdout.Write(data)
	return 0
}

// Cpp is the C preprocessor stage of the browser pipeline. The stripped
// compiler in this reproduction tokenizes raw source directly, so cpp is
// an identity filter that skips -D/-I style flags and cats its input file
// (or stdin), preserving the paper's pipeline shape
// "cpp $cppflags $file | help/rcc ...".
func Cpp(ctx *shell.Context, args []string) int {
	var file string
	for _, a := range args[1:] {
		if strings.HasPrefix(a, "-") {
			continue
		}
		file = a
	}
	if file == "" {
		io.Copy(ctx.Stdout, ctx.Stdin)
		return 0
	}
	data, err := ctx.FS.ReadFile(resolvePath(ctx, file))
	if err != nil {
		ctx.Errorf("cpp: %v", err)
		return 1
	}
	ctx.Stdout.Write(data)
	return 0
}

// Tee copies stdin to stdout and to each named file.
func Tee(ctx *shell.Context, args []string) int {
	data, _ := io.ReadAll(ctx.Stdin)
	ctx.Stdout.Write(data)
	status := 0
	for _, a := range args[1:] {
		if err := ctx.FS.WriteFile(resolvePath(ctx, a), data); err != nil {
			ctx.Errorf("tee: %v", err)
			status = 1
		}
	}
	return status
}

// Basename prints the final element of each path argument.
func Basename(ctx *shell.Context, args []string) int {
	for _, a := range args[1:] {
		b := a
		if i := strings.LastIndexByte(b, '/'); i >= 0 {
			b = b[i+1:]
		}
		fmt.Fprintln(ctx.Stdout, b)
	}
	return 0
}

// splitLines splits on newlines, dropping a trailing empty field.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return []string{""}
	}
	return strings.Split(s, "\n")
}
