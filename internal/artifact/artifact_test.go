package artifact

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteDirCreatesDirAndFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	set := []File{
		{Name: "a.jsonl", Write: func(w io.Writer) error { _, err := io.WriteString(w, "a\n"); return err }},
		{Name: "b.json", Write: func(w io.Writer) error { return nil }},
	}
	if err := WriteDir(dir, set); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"a.jsonl": "a\n", "b.json": ""} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", name, got, err, want)
		}
	}
}

// A failing writer stops the set and its error names the file.
func TestWriteDirStopsAtFailingWriter(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	set := []File{
		{Name: "bad.jsonl", Write: func(io.Writer) error { return boom }},
		{Name: "never.jsonl", Write: func(io.Writer) error { return nil }},
	}
	err := WriteDir(dir, set)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad.jsonl") {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "never.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("writer after the failure ran: %v", err)
	}
}
