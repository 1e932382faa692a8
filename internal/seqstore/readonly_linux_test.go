package seqstore

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// Open opens the file O_RDONLY, so a process that may read a store but not
// write it can serve it, and a write through the store is refused before it
// reaches the file.
func TestOpenIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.bin")
	d, err := Create(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	raw, err := re.f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var flags uintptr
	var errno syscall.Errno
	if err := raw.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil || errno != 0 {
		t.Fatalf("fcntl(F_GETFL): %v %v", err, errno)
	}
	if mode := int(flags) & syscall.O_ACCMODE; mode != syscall.O_RDONLY {
		t.Errorf("access mode %#o, want O_RDONLY", mode)
	}
	if _, err := re.Append([]float64{5, 6, 7, 8}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Append: error %v, want ErrReadOnly", err)
	}
	if err := re.Truncate(0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Truncate: error %v, want ErrReadOnly", err)
	}
	// A write on the descriptor itself fails in the kernel.
	if _, err := re.f.WriteAt([]byte{0}, headerSize); err == nil {
		t.Error("a write on the opened file succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Error("the refused writes changed the file")
	}
	if got, err := re.Get(0); err != nil || got[3] != 4 {
		t.Errorf("Get(0) = %v, %v after the refused writes", got, err)
	}
}
