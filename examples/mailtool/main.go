// Mailtool demonstrates the paper's programming interface: a shell script
// — not a Go program, and containing no user-interface code — reads the
// mailbox through the mail tools and manipulates help windows purely via
// the /mnt/help file system.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/world"
)

func main() {
	w, err := world.Build(100, 48)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Boot(); err != nil {
		log.Fatal(err)
	}
	h := w.Help

	// Run the headers tool exactly as the middle button would.
	mailStf := h.WindowByName("/help/mail/stf")
	h.Execute(mailStf, "headers")

	headers := h.WindowByName(world.MboxPath)
	if headers == nil {
		log.Fatalf("no headers window; errors: %q", h.Errors().Body.String())
	}
	fmt.Println("mailbox headers:")
	fmt.Print(headers.Body.String())

	// Point at Sean's header and pop the message.
	off := max(headers.Body.Index("sean", 0, headers.Body.Len()), 0)
	headers.SetSelection(core.SubBody, off, off)
	h.SetCurrent(headers, core.SubBody)
	h.Execute(mailStf, "messages")

	for _, win := range h.Windows() {
		if win.Tag.Slice(0, 9) == "From sean" {
			fmt.Println("\nSean's message:")
			fmt.Print(win.Body.String())
		}
	}

	// Now the file interface directly: a script searches the message
	// window bodies for the crash banner and writes a report window —
	// grep and cp over /mnt/help, exactly as the paper describes.
	script := `
x=` + "`" + `{cat /mnt/help/new/ctl}
echo name /report > /mnt/help/$x/ctl
grep -n 'TLB miss' /mnt/help/*/body | sed 3q > /mnt/help/$x/bodyapp
`
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	if status := w.Shell.Run(ctx, script); status != 0 {
		log.Fatalf("script failed: %s", out.String())
	}
	report := h.WindowByName("/report")
	fmt.Println("\nreport window (built by a shell script through /mnt/help):")
	fmt.Print(report.Body.String())
}
