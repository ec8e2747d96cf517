// Package artifact writes a run's export files into one directory. Each
// layer that exports (the kernel's observers, the experiment suite)
// lists its files once as name plus writer; WriteDir writes any such
// list, so the front-ends choose an output directory and nothing else.
package artifact

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is one artifact: its file name inside the output directory and
// the function that streams its bytes.
type File struct {
	Name  string
	Write func(io.Writer) error
}

// WriteDir creates dir when it is missing and writes every file of the
// set into it, in order, stopping at the first error.
func WriteDir(dir string, set []File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range set {
		if err := WriteFile(filepath.Join(dir, a.Name), a.Write); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile creates path and streams write's bytes into it.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
