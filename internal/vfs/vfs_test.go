package vfs

import (
	"bytes"
	"testing"

	"interplab/internal/atom"
	"interplab/internal/trace"
)

func TestOpenReadClose(t *testing.T) {
	o := New()
	o.AddFile("a.txt", []byte("one\ntwo\n"))
	fd, err := o.Open("a.txt", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Read(fd, 3)
	if err != nil || string(b) != "one" {
		t.Fatalf("read = %q, %v", b, err)
	}
	rest, err := o.ReadAll(fd)
	if err != nil || string(rest) != "\ntwo\n" {
		t.Fatalf("readall = %q, %v", rest, err)
	}
	if b, _ := o.Read(fd, 10); len(b) != 0 {
		t.Error("read at EOF must be empty")
	}
	if err := o.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(fd, 1); err == nil {
		t.Error("read after close must fail")
	}
}

func TestOpenMissing(t *testing.T) {
	o := New()
	if _, err := o.Open("nope", false); err == nil {
		t.Error("opening a missing file for read must fail")
	}
}

func TestReadLine(t *testing.T) {
	o := New()
	o.AddFile("f", []byte("alpha\nbeta\ngamma"))
	fd, _ := o.Open("f", false)
	lines := []string{}
	for {
		l, err := o.ReadLine(fd)
		if err != nil {
			t.Fatal(err)
		}
		if len(l) == 0 {
			break
		}
		lines = append(lines, string(l))
	}
	want := []string{"alpha\n", "beta\n", "gamma"}
	if len(lines) != 3 || lines[0] != want[0] || lines[1] != want[1] || lines[2] != want[2] {
		t.Errorf("lines = %q", lines)
	}
}

func TestWriteFileAndStdout(t *testing.T) {
	o := New()
	if _, err := o.Write(Stdout, []byte("hi ")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Write(Stderr, []byte("err")); err != nil {
		t.Fatal(err)
	}
	fd, err := o.Open("out.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Write(fd, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(fd); err != nil {
		t.Fatal(err)
	}
	if o.Stdout.String() != "hi " || o.Stderr.String() != "err" {
		t.Errorf("streams = %q / %q", o.Stdout.String(), o.Stderr.String())
	}
	d, ok := o.FileData("out.txt")
	if !ok || !bytes.Equal(d, []byte("data")) {
		t.Errorf("file content = %q", d)
	}
}

func TestWriteToReadOnlyFails(t *testing.T) {
	o := New()
	o.AddFile("r", []byte("x"))
	fd, _ := o.Open("r", false)
	if _, err := o.Write(fd, []byte("y")); err == nil {
		t.Error("write to read-only descriptor must fail")
	}
	wfd, _ := o.Open("w", true)
	if _, err := o.Read(wfd, 1); err == nil {
		t.Error("read from write-only descriptor must fail")
	}
}

func TestFileNames(t *testing.T) {
	o := New()
	o.AddFile("b", nil)
	o.AddFile("a", nil)
	names := o.FileNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestInstrumentedReadChargesPrecompiledCode(t *testing.T) {
	img := atom.NewImage()
	p := atom.NewProbe(img, new(trace.Recorder))
	o := New()
	o.Instrument(img, p)
	o.AddFile("f", bytes.Repeat([]byte("x"), 4096))
	fd, err := o.Open("f", false)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Total()
	if _, err := o.Read(fd, 4096); err != nil {
		t.Fatal(err)
	}
	cost := p.Total() - before
	// 4 KB read: trap overhead plus ~1 load + 1 alu per word.
	if cost < 2000 || cost > 4000 {
		t.Errorf("4KB read cost = %d native instructions, want ~2-3k", cost)
	}
	st := p.Stats()
	osr, ok := st.Region("os")
	if !ok || osr.Instructions == 0 {
		t.Error("os region must be charged")
	}
}

func TestBadDescriptors(t *testing.T) {
	o := New()
	if _, err := o.Read(99, 1); err == nil {
		t.Error("bad fd read must fail")
	}
	if _, err := o.Write(-1, nil); err == nil {
		t.Error("bad fd write must fail")
	}
	if err := o.Close(42); err == nil {
		t.Error("bad fd close must fail")
	}
	if _, err := o.ReadLine(17); err == nil {
		t.Error("bad fd readline must fail")
	}
}

func TestStdinIsEmpty(t *testing.T) {
	o := New()
	b, err := o.Read(Stdin, 10)
	if err != nil || len(b) != 0 {
		t.Errorf("stdin read = %q, %v", b, err)
	}
	if !o.AtEOF(Stdin) {
		t.Error("stdin must be at EOF")
	}
}

func TestAtEOFStates(t *testing.T) {
	o := New()
	o.AddFile("f", []byte("ab"))
	fd, _ := o.Open("f", false)
	if o.AtEOF(fd) {
		t.Error("fresh descriptor not at EOF")
	}
	o.Read(fd, 2)
	if !o.AtEOF(fd) {
		t.Error("drained descriptor must be at EOF")
	}
	if !o.AtEOF(999) {
		t.Error("bad descriptor folds to EOF")
	}
	wfd, _ := o.Open("w", true)
	if !o.AtEOF(wfd) {
		t.Error("write-only descriptor folds to EOF")
	}
}

func TestOverwriteFile(t *testing.T) {
	o := New()
	o.AddFile("f", []byte("old"))
	fd, _ := o.Open("f", true) // truncate
	o.Write(fd, []byte("new content"))
	o.Close(fd)
	d, _ := o.FileData("f")
	if string(d) != "new content" {
		t.Errorf("file = %q", d)
	}
	// A reader opened before the rewrite sees its own snapshot.
	o.AddFile("g", []byte("snapshot"))
	rd, _ := o.Open("g", false)
	o.AddFile("g", []byte("changed"))
	b, _ := o.ReadAll(rd)
	if string(b) != "snapshot" {
		t.Errorf("snapshot semantics broken: %q", b)
	}
}
