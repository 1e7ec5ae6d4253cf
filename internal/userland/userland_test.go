package userland

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/shell"
	"repro/internal/vfs"
)

// env builds a shell with the userland installed and a scratch world.
func env(t *testing.T) (*vfs.FS, *shell.Shell, *shell.Context, *bytes.Buffer) {
	t.Helper()
	fs := vfs.New()
	fs.MkdirAll("/bin")
	fs.MkdirAll("/tmp")
	sh := shell.New(fs)
	Install(sh)
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	return fs, sh, ctx, &out
}

func TestCat(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/a", []byte("one\n"))
	fs.WriteFile("/tmp/b", []byte("two\n"))
	sh.Run(ctx, "cat /tmp/a /tmp/b")
	if out.String() != "one\ntwo\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestCatStdin(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "echo via stdin | cat")
	if out.String() != "via stdin\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestCatMissing(t *testing.T) {
	_, sh, ctx, out := env(t)
	status := sh.Run(ctx, "cat /tmp/ghost")
	if status == 0 || !strings.Contains(out.String(), "cat:") {
		t.Errorf("status=%d out=%q", status, out.String())
	}
}

func TestCp(t *testing.T) {
	fs, sh, ctx, _ := env(t)
	fs.WriteFile("/tmp/src", []byte("data"))
	sh.Run(ctx, "cp /tmp/src /tmp/dst")
	if got, _ := fs.ReadFile("/tmp/dst"); string(got) != "data" {
		t.Errorf("dst=%q", got)
	}
}

func TestCpIntoDir(t *testing.T) {
	fs, sh, ctx, _ := env(t)
	fs.MkdirAll("/tmp/d")
	fs.WriteFile("/tmp/src", []byte("x"))
	sh.Run(ctx, "cp /tmp/src /tmp/d")
	if got, _ := fs.ReadFile("/tmp/d/src"); string(got) != "x" {
		t.Errorf("copied=%q", got)
	}
}

func TestGrepBasic(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/f", []byte("alpha\nbeta\ngamma\n"))
	status := sh.Run(ctx, "grep ta /tmp/f")
	if status != 0 || out.String() != "beta\n" {
		t.Errorf("status=%d out=%q", status, out.String())
	}
}

func TestGrepLineNumbers(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/f", []byte("a\nmatch\nc\n"))
	sh.Run(ctx, "grep -n match /tmp/f")
	if out.String() != "/tmp/f:2:match\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestGrepMultipleFilesShowsNames(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/src")
	fs.WriteFile("/src/a.c", []byte("int n;\n"))
	fs.WriteFile("/src/b.c", []byte("no match\nn = 0;\n"))
	sh.Run(ctx, "grep n /src/*.c")
	got := out.String()
	if !strings.Contains(got, "/src/a.c:int n;") || !strings.Contains(got, "/src/b.c:n = 0;") {
		t.Errorf("out=%q", got)
	}
	// grep on the letter n also matches "no match" — the imprecision the
	// paper contrasts with uses.
	if !strings.Contains(got, "no match") {
		t.Errorf("grep should match every occurrence of the letter: %q", got)
	}
}

func TestGrepInvertCountNames(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/f", []byte("yes\nno\nyes\n"))
	sh.Run(ctx, "grep -c yes /tmp/f")
	if out.String() != "2\n" {
		t.Errorf("count out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "grep -v yes /tmp/f")
	if out.String() != "no\n" {
		t.Errorf("invert out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "grep -l yes /tmp/f")
	if out.String() != "/tmp/f\n" {
		t.Errorf("names out=%q", out.String())
	}
}

func TestGrepNoMatchStatus(t *testing.T) {
	fs, sh, ctx, _ := env(t)
	fs.WriteFile("/tmp/f", []byte("x\n"))
	if status := sh.Run(ctx, "grep zzz /tmp/f"); status != 1 {
		t.Errorf("status=%d, want 1", status)
	}
}

func TestGrepCaseFold(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/f", []byte("Hello\n"))
	sh.Run(ctx, "grep -i hello /tmp/f")
	if out.String() != "Hello\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestLs(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/d/sub")
	fs.WriteFile("/d/file.c", nil)
	sh.Run(ctx, "ls /d")
	if out.String() != "file.c\nsub/\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestLsDefaultDir(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/work")
	fs.WriteFile("/work/a", nil)
	ctx.Dir = "/work"
	sh.Run(ctx, "ls")
	if out.String() != "a\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestSed1q(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "{ echo first; echo second } | sed 1q")
	if out.String() != "first\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestSedPrintLine(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "{ echo a; echo b; echo c } | sed -n 2p")
	if out.String() != "b\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestSedSubstitute(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "echo aaa | sed s/a/b/")
	if out.String() != "baa\n" {
		t.Errorf("out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "echo aaa | sed s/a/b/g")
	if out.String() != "bbb\n" {
		t.Errorf("global out=%q", out.String())
	}
}

func TestWc(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/f", []byte("one two\nthree\n"))
	sh.Run(ctx, "wc /tmp/f")
	fields := strings.Fields(out.String())
	if len(fields) != 4 || fields[0] != "2" || fields[1] != "3" || fields[2] != "14" {
		t.Errorf("out=%q", out.String())
	}
}

func TestSortUniq(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "{ echo b; echo a; echo b } | sort")
	if out.String() != "a\nb\nb\n" {
		t.Errorf("sort out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "{ echo b; echo a; echo b } | sort | uniq")
	if out.String() != "a\nb\n" {
		t.Errorf("uniq out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "{ echo a; echo b } | sort -r")
	if out.String() != "b\na\n" {
		t.Errorf("sort -r out=%q", out.String())
	}
}

func TestHeadTail(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "{ echo 1; echo 2; echo 3 } | head -n 2")
	if out.String() != "1\n2\n" {
		t.Errorf("head out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "{ echo 1; echo 2; echo 3 } | tail -n 2")
	if out.String() != "2\n3\n" {
		t.Errorf("tail out=%q", out.String())
	}
}

func TestTouchRmMkdir(t *testing.T) {
	fs, sh, ctx, _ := env(t)
	sh.Run(ctx, "mkdir /newdir\ntouch /newdir/f")
	if !fs.Exists("/newdir/f") {
		t.Fatal("touch did not create")
	}
	before, _ := fs.Stat("/newdir/f")
	sh.Run(ctx, "touch /newdir/f")
	after, _ := fs.Stat("/newdir/f")
	if after.ModTime <= before.ModTime {
		t.Error("touch did not bump mtime")
	}
	sh.Run(ctx, "rm /newdir/f")
	if fs.Exists("/newdir/f") {
		t.Error("rm did not remove")
	}
}

func TestDateDeterministic(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "date")
	if !strings.Contains(out.String(), "1991") {
		t.Errorf("out=%q", out.String())
	}
	out.Reset()
	sh.Run(ctx, "date=yesterday\ndate")
	if out.String() != "yesterday\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestCppPassThrough(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.WriteFile("/tmp/x.c", []byte("int main(){}\n"))
	sh.Run(ctx, "cpp -DX=1 /tmp/x.c")
	if out.String() != "int main(){}\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestTee(t *testing.T) {
	fs, sh, ctx, out := env(t)
	sh.Run(ctx, "echo data | tee /tmp/copy")
	if out.String() != "data\n" {
		t.Errorf("stdout=%q", out.String())
	}
	if got, _ := fs.ReadFile("/tmp/copy"); string(got) != "data\n" {
		t.Errorf("file=%q", got)
	}
}

func TestBasename(t *testing.T) {
	_, sh, ctx, out := env(t)
	sh.Run(ctx, "basename /usr/rob/src/help/dat.h plain")
	if out.String() != "dat.h\nplain\n" {
		t.Errorf("out=%q", out.String())
	}
}

func TestFortuneAndNews(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/lib")
	fs.WriteFile("/lib/fortunes", []byte("pithy\nsecond\n"))
	fs.WriteFile("/lib/news", []byte("the news\n"))
	sh.Run(ctx, "fortune\nnews")
	if out.String() != "pithy\nthe news\n" {
		t.Errorf("out=%q", out.String())
	}
}

// ---- mk ---------------------------------------------------------------------

func TestParseMkfile(t *testing.T) {
	mf, err := ParseMkfile("CC=vc\nall: a.o b.o\n\tcombine\n\na.o: a.c\n\t$CC a.c\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Rules) != 2 {
		t.Fatalf("rules = %d", len(mf.Rules))
	}
	if mf.Vars["CC"] != "vc" {
		t.Errorf("CC = %q", mf.Vars["CC"])
	}
	r := mf.Rules[1]
	if r.Targets[0] != "a.o" || r.Prereqs[0] != "a.c" || r.Recipe[0] != "$CC a.c" {
		t.Errorf("rule = %+v", r)
	}
}

func TestParseMkfileErrors(t *testing.T) {
	if _, err := ParseMkfile("\trecipe without rule\n"); err == nil {
		t.Error("recipe outside rule should fail")
	}
	if _, err := ParseMkfile("just some words\n"); err == nil {
		t.Error("non-rule line should fail")
	}
}

func TestMkBuildsStaleTarget(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/proj")
	fs.WriteFile("/proj/a.c", []byte("src"))
	fs.WriteFile("/proj/mkfile", []byte("a.o: a.c\n\tcp a.c a.o\n"))
	ctx.Dir = "/proj"
	if status := sh.Run(ctx, "mk"); status != 0 {
		t.Fatalf("mk failed: %s", out.String())
	}
	if got, _ := fs.ReadFile("/proj/a.o"); string(got) != "src" {
		t.Errorf("a.o=%q", got)
	}
	// Second run: up to date.
	out.Reset()
	sh.Run(ctx, "mk")
	if !strings.Contains(out.String(), "up to date") {
		t.Errorf("second mk out=%q", out.String())
	}
	// Touch the source; mk rebuilds.
	out.Reset()
	sh.Run(ctx, "touch a.c\nmk")
	if !strings.Contains(out.String(), "cp a.c a.o") {
		t.Errorf("rebuild out=%q", out.String())
	}
}

func TestMkTransitive(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/p")
	fs.WriteFile("/p/x.c", []byte("1"))
	fs.WriteFile("/p/mkfile", []byte("prog: x.o\n\tcp x.o prog\nx.o: x.c\n\tcp x.c x.o\n"))
	ctx.Dir = "/p"
	if status := sh.Run(ctx, "mk"); status != 0 {
		t.Fatalf("mk: %s", out.String())
	}
	if got, _ := fs.ReadFile("/p/prog"); string(got) != "1" {
		t.Errorf("prog=%q", got)
	}
}

func TestMkMissingSource(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/p")
	fs.WriteFile("/p/mkfile", []byte("prog: ghost.c\n\techo never\n"))
	ctx.Dir = "/p"
	if status := sh.Run(ctx, "mk"); status == 0 {
		t.Errorf("mk with missing source should fail: %s", out.String())
	}
}

func TestMkCycle(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/p")
	fs.WriteFile("/p/mkfile", []byte("a: b\n\techo a\nb: a\n\techo b\n"))
	ctx.Dir = "/p"
	if status := sh.Run(ctx, "mk a"); status == 0 {
		t.Errorf("cycle should fail: %s", out.String())
	}
}

func TestMkNamedTargetAndF(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/p")
	fs.WriteFile("/p/src", []byte("s"))
	fs.WriteFile("/p/build.mk", []byte("first: src\n\tcp src first\nsecond: src\n\tcp src second\n"))
	ctx.Dir = "/p"
	if status := sh.Run(ctx, "mk -f build.mk second"); status != 0 {
		t.Fatalf("mk: %s", out.String())
	}
	if fs.Exists("/p/first") {
		t.Error("mk built the wrong target")
	}
	if !fs.Exists("/p/second") {
		t.Error("named target not built")
	}
}

func TestMkTouched(t *testing.T) {
	fs, sh, ctx, out := env(t)
	fs.MkdirAll("/p")
	fs.WriteFile("/p/a.c", []byte("a"))
	fs.WriteFile("/p/b.c", []byte("b"))
	fs.WriteFile("/p/mkfile", []byte("a.o: a.c\n\tcp a.c a.o\nb.o: b.c\n\tcp b.c b.o\n"))
	ctx.Dir = "/p"
	sh.Run(ctx, "mk a.o\nmk b.o")
	stamp := fs.Now()
	// Modify only b.c: mktouched must rebuild b.o and not a.o.
	fs.WriteFile("/p/b.c", []byte("b2"))
	out.Reset()
	if status := sh.Run(ctx, "mktouched "+itoa(stamp)); status != 0 {
		t.Fatalf("mktouched: %s", out.String())
	}
	if strings.Contains(out.String(), "rebuilding a.o") {
		t.Errorf("a.o rebuilt unnecessarily: %s", out.String())
	}
	if !strings.Contains(out.String(), "rebuilding b.o") {
		t.Errorf("b.o not rebuilt: %s", out.String())
	}
	if got, _ := fs.ReadFile("/p/b.o"); string(got) != "b2" {
		t.Errorf("b.o=%q", got)
	}
	// Nothing modified since now.
	out.Reset()
	sh.Run(ctx, "mktouched "+itoa(fs.Now()))
	if !strings.Contains(out.String(), "nothing modified") {
		t.Errorf("out=%q", out.String())
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func BenchmarkGrepLargeFile(b *testing.B) {
	fs := vfs.New()
	fs.MkdirAll("/tmp")
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("some line of source text with variable names\n")
	}
	fs.WriteFile("/tmp/big", []byte(sb.String()))
	sh := shell.New(fs)
	Install(sh)
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		sh.Run(ctx, "grep variable /tmp/big")
	}
}

// BenchmarkGrepChunked greps a 16 MiB generated log, sealed, through a
// serialized view of the namespace, for a literal on a few lines: the
// chunked scan a middle-clicked grep of a large log takes, which the
// 92 KB file of BenchmarkGrepLargeFile never reaches.
func BenchmarkGrepChunked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 512)
	for i := range words {
		w := make([]byte, 2+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	var log []byte
	for n := 1; len(log) < 16<<20; n++ {
		log = strconv.AppendInt(log, int64(n), 10)
		log = append(log, " host"...)
		log = strconv.AppendInt(log, int64(rng.Intn(64)), 10)
		log = append(log, ':')
		for k := 2 + rng.Intn(12); k > 0; k-- {
			log = append(append(log, ' '), words[rng.Intn(len(words))]...)
		}
		if rng.Intn(20000) == 0 {
			log = append(log, " ZQXPLANTED"...)
		}
		log = append(log, '\n')
	}
	raw := vfs.New()
	raw.MkdirAll("/log")
	raw.WriteFile("/log/big.log", log)
	if err := raw.Seal("/log"); err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	sh := shell.New(raw.Serialized(&mu))
	Install(sh)
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if sh.Run(ctx, "grep -n ZQXPLANTED /log/big.log") != 0 {
			b.Fatalf("grep found nothing: %s", out.String())
		}
	}
}

func BenchmarkMkUpToDate(b *testing.B) {
	fs := vfs.New()
	fs.MkdirAll("/p")
	fs.WriteFile("/p/a.c", []byte("x"))
	fs.WriteFile("/p/mkfile", []byte("a.o: a.c\n\tcp a.c a.o\n"))
	sh := shell.New(fs)
	Install(sh)
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	ctx.Dir = "/p"
	sh.Run(ctx, "mk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		sh.Run(ctx, "mk")
	}
}
