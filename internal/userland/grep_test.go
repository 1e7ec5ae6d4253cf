package userland

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shell"
	"repro/internal/vfs"
)

// oracleLines splits a body into lines the way grep reads them, with
// code of its own: on \n, one trailing \r trimmed, and no empty line
// after a final \n.
func oracleLines(data []byte) []string {
	lines := strings.Split(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	for i, line := range lines {
		lines[i] = strings.TrimSuffix(line, "\r")
	}
	return lines
}

// oracleMatches reports which lines re matches, one MatchString each.
func oracleMatches(re *regexp.Regexp, lines []string) []bool {
	match := make([]bool, len(lines))
	for i, line := range lines {
		match[i] = re.MatchString(line)
	}
	return match
}

// grepOracle prints what grep prints for lines, given which of them the
// pattern matches, honouring the -n, -c, -l and -v letters in flags.
func grepOracle(lines []string, match []bool, flags, name string, showName bool) (string, bool) {
	prefix := ""
	if showName {
		prefix = name + ":"
	}
	var out strings.Builder
	n := 0
	for i, line := range lines {
		if match[i] == strings.Contains(flags, "v") {
			continue
		}
		n++
		switch {
		case strings.Contains(flags, "l"):
			return name + "\n", true
		case strings.Contains(flags, "c"):
		case strings.Contains(flags, "n"):
			fmt.Fprintf(&out, "%s%d:%s\n", prefix, i+1, line)
		default:
			fmt.Fprintf(&out, "%s%s\n", prefix, line)
		}
	}
	// -l wins over -c: a file with no matching line prints nothing.
	if strings.Contains(flags, "c") && !strings.Contains(flags, "l") {
		fmt.Fprintf(&out, "%s%d\n", prefix, n)
	}
	return out.String(), n > 0
}

// grepArgs runs grep with flags (which may be empty) and pat directly,
// past the shell's parser, so a pattern needs no quoting.
func grepArgs(ctx *shell.Context, flags, pat string, names ...string) int {
	args := []string{"grep"}
	if flags != "" {
		args = append(args, flags)
	}
	return Grep(ctx, append(append(args, pat), names...))
}

// bigGrepBody builds a body comfortably above grepParallelMin whose lines
// exercise the chunk machinery: ordinary lines, matches placed at random,
// a handful of giant lines that span several chunks, \r\n endings, and no
// trailing newline at EOF.
func bigGrepBody(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var b bytes.Buffer
	b.Grow(grepParallelMin + 2*grepChunk)
	i := 0
	for b.Len() < grepParallelMin+grepChunk {
		switch rng.Intn(20) {
		case 0:
			fmt.Fprintf(&b, "needle line %d\n", i)
		case 1:
			fmt.Fprintf(&b, "crlf needle %d\r\n", i)
		case 2:
			// A line longer than a chunk, sometimes matching.
			tag := "hay"
			if rng.Intn(2) == 0 {
				tag = "needle"
			}
			b.WriteString(tag)
			b.Write(bytes.Repeat([]byte{'x'}, grepChunk+grepChunk/2))
			b.WriteByte('\n')
		default:
			fmt.Fprintf(&b, "line %d of plain hay without the word\n", i)
		}
		i++
	}
	b.WriteString("needle at EOF with no newline")
	return b.Bytes()
}

func grepEnv(t testing.TB, body []byte) (*shell.Shell, *shell.Context, *bytes.Buffer) {
	fs := vfs.New()
	fs.MkdirAll("/tmp")
	fs.WriteFile("/tmp/big", body)
	fs.WriteFile("/tmp/small", []byte("one needle\ntwo hay\n"))
	sh := shell.New(fs)
	Install(sh)
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	return sh, ctx, &out
}

// grepPatterns covers both scanner paths: literals with and without a
// regexp tail, anchors, a case fold, an alternation, a one-byte literal
// prefix, a literal that ends in \r, and ^lit$, whose LiteralPrefix says
// complete although a line holding lit need not match it.
var grepPatterns = []string{
	"needle", "needle [0-9]+", "^needle", "needle$", "(?i)NEEDLE",
	"hay|needle", "e.d", `needle\r`, "^needle$",
}

// TestGrepChunkedMatchesSequential runs every flag combination that
// changes the output shape, for each pattern (and one that matches
// nothing), over a multi-chunk file, over a copy with a needle across
// every chunk boundary, and over a file small enough to be scanned
// whole, and compares each scan against the line-by-line oracle.
func TestGrepChunkedMatchesSequential(t *testing.T) {
	body := bigGrepBody(t)
	straddled := bytes.Clone(body)
	for off := grepChunk; off+3 <= len(straddled); off += grepChunk {
		copy(straddled[off-3:], "needle")
	}
	small := body[:64<<10]
	for _, tc := range []struct {
		name string
		body []byte
	}{{"body", body}, {"straddled", straddled}, {"small", small}} {
		_, ctx, out := grepEnv(t, tc.body)
		lines := oracleLines(tc.body)
		for _, pat := range append(grepPatterns, "zzzqqq") {
			match := oracleMatches(mustRe(t, pat), lines)
			for _, flags := range []string{"", "-n", "-c", "-l", "-lc", "-vc", "-nv"} {
				out.Reset()
				status := grepArgs(ctx, flags, pat, "/tmp/big")
				want, hit := grepOracle(lines, match, flags, "/tmp/big", strings.Contains(flags, "n"))
				cmd := fmt.Sprintf("%s: grep %s %q", tc.name, flags, pat)
				checkGrep(t, cmd, status, out.String(), want, hit)
			}
		}
	}
}

// checkGrep compares one grep run with the oracle's output and status.
func checkGrep(t *testing.T, cmd string, status int, got, want string, hit bool) {
	t.Helper()
	wantStatus := 1
	if hit {
		wantStatus = 0
	}
	if status != wantStatus {
		t.Errorf("%s: status = %d, want %d", cmd, status, wantStatus)
	}
	if got == want {
		return
	}
	t.Errorf("%s: output diverges from the oracle (%d vs %d bytes)", cmd, len(got), len(want))
	gl := strings.SplitAfter(got, "\n")
	wl := strings.SplitAfter(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("first divergence at output line %d:\n got %q\nwant %q", i+1, trunc(gl[i]), trunc(wl[i]))
		}
	}
}

// TestGrepLiteralAcrossChunkEnd: a line starts 3 bytes before the first
// chunk's end and its needle crosses that boundary. The chunk that owns
// the line must find the literal in the bytes it reads past its end.
func TestGrepLiteralAcrossChunkEnd(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(strings.Repeat("h", 60) + "\n")
	for b.Len() < grepChunk-3 {
		b.WriteString(strings.Repeat("h", 63) + "\n")
	}
	if b.Len() != grepChunk-3 {
		t.Fatalf("planted line starts at %d, want %d", b.Len(), grepChunk-3)
	}
	b.WriteString("needle here\n")
	for b.Len() < grepParallelMin+grepChunk {
		b.WriteString(strings.Repeat("h", 63) + "\n")
	}
	sh, ctx, out := grepEnv(t, b.Bytes())
	if status := sh.Run(ctx, "grep -n needle /tmp/big"); status != 0 {
		t.Fatalf("status = %d, output %q", status, trunc(out.String()))
	}
	if got, want := out.String(), "/tmp/big:16385:needle here\n"; got != want {
		t.Fatalf("grep -n = %q, want %q", trunc(got), want)
	}
}

// FuzzGrep checks the in-memory path (grep reading stdin) against the
// oracle. The body is the fuzz bytes; the pattern is the fuzz string
// when it compiles, else one of grepPatterns; flags picks -n, -c, -l,
// -v and -i.
func FuzzGrep(f *testing.F) {
	f.Add([]byte("needle 1\nhay\r\nneedle\r\n\nneedle"), "", uint8(0), uint8(1))
	f.Add([]byte("xneedle\r\nneedle\rneedle\r\n"), "", uint8(7), uint8(0))
	f.Add([]byte("\n\n"), "^$", uint8(0), uint8(9))
	f.Add([]byte("a\nb\r\nab\n"), "a\nb", uint8(0), uint8(3))
	f.Add([]byte("needle\nneedle\n"), "", uint8(8), uint8(16))
	f.Fuzz(func(t *testing.T, body []byte, pat string, pick, bits uint8) {
		if _, err := regexp.Compile(pat); err != nil || pat == "" || strings.HasPrefix(pat, "-") {
			pat = grepPatterns[int(pick)%len(grepPatterns)]
		}
		flags := ""
		for i, c := range "nclvi" {
			if bits&(1<<i) != 0 {
				flags += string(c)
			}
		}
		want := pat
		if strings.Contains(flags, "i") {
			want = "(?i)" + pat
		}
		re, err := regexp.Compile(want)
		if err != nil {
			t.Skip(err)
		}
		var out bytes.Buffer
		ctx := shell.New(vfs.New()).NewContext(&out, &out)
		ctx.Stdin = bytes.NewReader(body)
		if flags != "" {
			flags = "-" + flags
		}
		status := grepArgs(ctx, flags, pat)
		lines := oracleLines(body)
		exp, hit := grepOracle(lines, oracleMatches(re, lines), flags, "<stdin>", false)
		checkGrep(t, fmt.Sprintf("grep %s %q", flags, pat), status, out.String(), exp, hit)
	})
}

func trunc(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

func mustRe(t testing.TB, pat string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(pat)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestGrepMixedSizesOrdered greps a big and a small file together and
// checks the output keeps argument order with name prefixes.
func TestGrepMixedSizesOrdered(t *testing.T) {
	body := bigGrepBody(t)
	sh, ctx, out := grepEnv(t, body)
	status := sh.Run(ctx, "grep -c needle /tmp/big /tmp/small /tmp/missing")
	if status != 0 {
		t.Errorf("status = %d", status)
	}
	s := out.String()
	bigAt := strings.Index(s, "/tmp/big:")
	smallAt := strings.Index(s, "/tmp/small:1")
	errAt := strings.Index(s, "grep:")
	if bigAt < 0 || smallAt < 0 || errAt < 0 {
		t.Fatalf("missing pieces in output:\n%s", trunc(s))
	}
	if !(bigAt < smallAt) {
		t.Errorf("big/small out of order:\n%s", trunc(s))
	}
}

// TestGrepAllocFlatInFileSize: each worker reads its chunks into one
// reused buffer, so grepping a 24 MiB short-line file allocates within
// 1 MiB of grepping a 6 MiB one.
func TestGrepAllocFlatInFileSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // workers, so buffers, do not scale with the host
	alloc := func(size int) uint64 {
		var b bytes.Buffer
		for i := 0; b.Len() < size; i++ {
			fmt.Fprintf(&b, "%d host%d: quiet line of filler words\n", i, i%64)
			if i%(size/400) == 7 {
				b.WriteString("planted ZQXPLANTED here\n")
			}
		}
		sh, ctx, out := grepEnv(t, b.Bytes())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		status := sh.Run(ctx, "grep -n ZQXPLANTED /tmp/big")
		runtime.ReadMemStats(&m1)
		if status != 0 || strings.Count(out.String(), "\n") < 8 {
			t.Fatalf("grep over %d bytes: status %d, output %q", size, status, trunc(out.String()))
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	small, large := alloc(6<<20), alloc(24<<20)
	if large > small+1<<20 {
		t.Fatalf("grep allocated %d bytes over 6 MiB and %d over 24 MiB, want growth under 1 MiB", small, large)
	}
	t.Logf("grep allocated %d bytes over 6 MiB, %d over 24 MiB", small, large)
}
