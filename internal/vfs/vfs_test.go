package vfs_test

import (
	"strings"
	"testing"

	"idaax/internal/testutil/crashfs"
	"idaax/internal/vfs"
)

// The conformance script below runs against the OS backend and the in-memory
// crash filesystem; both must observe the same results, so the crash suites
// that run the durable store on crashfs also speak for the real filesystem.
//
// One difference is outside the contract on purpose: crashfs keeps no
// directory objects, so a directory that holds no file is invisible to
// ReadDir. The durable store only lists directories it has written files
// into, and the script never lists an empty one.

func result(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// writeFile is the store's write sequence: Create, Write each chunk, Sync,
// Close.
func writeFile(fs vfs.FS, name string, chunks ...string) string {
	f, err := fs.Create(name)
	if err != nil {
		return "error"
	}
	for _, c := range chunks {
		if n, err := f.Write([]byte(c)); err != nil || n != len(c) {
			return "error"
		}
	}
	if err := f.Sync(); err != nil {
		return "error"
	}
	return result(f.Close())
}

func readFile(fs vfs.FS, name string) string {
	b, err := fs.ReadFile(name)
	if err != nil {
		return "error"
	}
	return string(b)
}

func readDir(fs vfs.FS, dir string) string {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return "error"
	}
	return strings.Join(names, ",")
}

var script = []struct {
	name string
	run  func(vfs.FS) string
	want string
}{
	{"mkdir", func(fs vfs.FS) string { return result(fs.MkdirAll("wal")) }, "ok"},
	{"list a missing dir", func(fs vfs.FS) string { return readDir(fs, "nope") }, ""},
	{"write in chunks", func(fs vfs.FS) string { return writeFile(fs, "wal/000001.log", "hello ", "world") }, "ok"},
	{"read back", func(fs vfs.FS) string { return readFile(fs, "wal/000001.log") }, "hello world"},
	{"create truncates", func(fs vfs.FS) string { return writeFile(fs, "wal/000001.log", "again") }, "ok"},
	{"read truncated", func(fs vfs.FS) string { return readFile(fs, "wal/000001.log") }, "again"},
	{"read a missing file", func(fs vfs.FS) string { return readFile(fs, "wal/000002.log") }, "error"},
	{"write temp manifest", func(fs vfs.FS) string { return writeFile(fs, "MANIFEST.tmp", "v1") }, "ok"},
	{"rename into place", func(fs vfs.FS) string { return result(fs.Rename("MANIFEST.tmp", "MANIFEST")) }, "ok"},
	{"sync root dir", func(fs vfs.FS) string { return result(fs.SyncDir(".")) }, "ok"},
	{"old name is gone", func(fs vfs.FS) string { return readFile(fs, "MANIFEST.tmp") }, "error"},
	{"new name has content", func(fs vfs.FS) string { return readFile(fs, "MANIFEST") }, "v1"},
	{"write replacement", func(fs vfs.FS) string { return writeFile(fs, "MANIFEST.tmp", "v2") }, "ok"},
	{"rename over existing", func(fs vfs.FS) string { return result(fs.Rename("MANIFEST.tmp", "MANIFEST")) }, "ok"},
	{"replaced content", func(fs vfs.FS) string { return readFile(fs, "MANIFEST") }, "v2"},
	{"rename a missing file", func(fs vfs.FS) string { return result(fs.Rename("nope", "other")) }, "error"},
	{"create makes parents", func(fs vfs.FS) string { return writeFile(fs, "seg/7/c0", "a") }, "ok"},
	{"second column", func(fs vfs.FS) string { return writeFile(fs, "seg/7/c1", "b") }, "ok"},
	{"second generation", func(fs vfs.FS) string { return writeFile(fs, "seg/8/c0", "c") }, "ok"},
	{"list subdirs", func(fs vfs.FS) string { return readDir(fs, "seg") }, "7,8"},
	{"list files sorted", func(fs vfs.FS) string { return readDir(fs, "seg/7") }, "c0,c1"},
	{"list root", func(fs vfs.FS) string { return readDir(fs, ".") }, "MANIFEST,seg,wal"},
	{"sync nested dir", func(fs vfs.FS) string { return result(fs.SyncDir("seg/7")) }, "ok"},
	{"sync a missing dir", func(fs vfs.FS) string { return result(fs.SyncDir("nope")) }, "ok"},
	{"remove", func(fs vfs.FS) string { return result(fs.Remove("seg/7/c1")) }, "ok"},
	{"removed is unreadable", func(fs vfs.FS) string { return readFile(fs, "seg/7/c1") }, "error"},
	{"removed is unlisted", func(fs vfs.FS) string { return readDir(fs, "seg/7") }, "c0"},
	{"remove a missing file", func(fs vfs.FS) string { return result(fs.Remove("seg/7/c1")) }, "ok"},
	{"remove a tree", func(fs vfs.FS) string { return result(fs.RemoveAll("seg/7")) }, "ok"},
	{"tree is gone", func(fs vfs.FS) string { return readDir(fs, "seg") }, "8"},
	{"tree file is unreadable", func(fs vfs.FS) string { return readFile(fs, "seg/7/c0") }, "error"},
	{"remove a missing tree", func(fs vfs.FS) string { return result(fs.RemoveAll("nope")) }, "ok"},
	{"sibling untouched", func(fs vfs.FS) string { return readFile(fs, "seg/8/c0") }, "c"},
}

func TestBackendsConform(t *testing.T) {
	backends := map[string]vfs.FS{
		"os":      vfs.OS(t.TempDir()),
		"crashfs": crashfs.New(),
	}
	for name, fs := range backends {
		for i, step := range script {
			if got := step.run(fs); got != step.want {
				t.Errorf("%s: step %d (%s) = %q, want %q", name, i, step.name, got, step.want)
			}
		}
	}
}
