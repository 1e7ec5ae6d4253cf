package report

import (
	"bytes"
	"strings"
	"testing"
)

const scrW, scrH = 120, 60

func TestClicksTable(t *testing.T) {
	var b bytes.Buffer
	if err := Clicks(&b, scrW, scrH); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"T1.", "fig5", "fig12", "KEYBOARD UNTOUCHED", "0 keystrokes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("clicks table missing %q", want)
		}
	}
	if strings.Contains(out, "claim violated") {
		t.Error("the keyboard claim must hold")
	}
}

func TestInteractionTable(t *testing.T) {
	var b bytes.Buffer
	if err := Interaction(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"help", "popup-ws", "typed-shell", "help-noauto",
		"open-file-by-pointing", "total help",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("interaction table missing %q", want)
		}
	}
	// help's total row must come before the others (sorted ascending).
	helpIdx := strings.Index(out, "total help ")
	popupIdx := strings.Index(out, "total popup-ws")
	if helpIdx < 0 || popupIdx < 0 || helpIdx > popupIdx {
		t.Error("help should rank first in the summary")
	}
}

func TestUsesGrepTable(t *testing.T) {
	var b bytes.Buffer
	if err := UsesGrep(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ident=n ") && !strings.Contains(out, "ident=n\t") {
		t.Errorf("missing ident=n row:\n%s", out)
	}
	if !strings.Contains(out, "uses=  4") {
		t.Errorf("n should have exactly 4 uses:\n%s", out)
	}
}

func TestSizeTable(t *testing.T) {
	var b bytes.Buffer
	// The test runs from the package dir; the repo root is two levels up.
	if err := Size(&b, "../.."); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"help core (core+helpfs)", "help core, beyond paper", "substrates", "4300 lines of C",
		"/help/cbr/decl", "UI references: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("size table missing %q", want)
		}
	}
	if strings.Contains(out, "UI references: 1") {
		t.Error("a tool script contains UI code")
	}
}

func TestPlacementTable(t *testing.T) {
	var b bytes.Buffer
	if err := Placement(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"help", "cascade", "stack", "n=32"} {
		if !strings.Contains(out, want) {
			t.Errorf("placement table missing %q", want)
		}
	}
}

func TestConnectivityTable(t *testing.T) {
	var b bytes.Buffer
	if err := Connectivity(&b, scrW, scrH); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "fig12") {
		t.Errorf("connectivity table missing steps:\n%s", out)
	}
}

func TestCountTokens(t *testing.T) {
	if got := CountTokens("a b\n c\n\n"); got != 3 {
		t.Errorf("CountTokens = %d", got)
	}
	if got := CountTokens(""); got != 0 {
		t.Errorf("empty = %d", got)
	}
}
