package cc

import (
	"strings"
	"testing"
)

// ParseFiles returns name-sorted slots and, on failure, the error of
// the first failing name in sorted order — at any worker count, so a
// parallel pass 1 reports what a sequential one would.
func TestParseFiles(t *testing.T) {
	const good, bad = "int f(int a) { return a; }\n", "int f( {\n"
	cases := []struct {
		name    string
		srcs    map[string]string
		want    []string // file names in slot order
		wantErr string   // prefix of the error, "" = none
	}{
		{name: "empty set", srcs: map[string]string{}},
		{name: "one file", srcs: map[string]string{"a.c": good}, want: []string{"a.c"}},
		{name: "sorted slots", srcs: map[string]string{"c.c": good, "a.c": good, "b/x.c": good, "b.c": good},
			want: []string{"a.c", "b.c", "b/x.c", "c.c"}},
		{name: "first sorted failure wins", srcs: map[string]string{"z.c": bad, "m.c": good, "k.c": bad, "a.c": good},
			wantErr: "parse k.c: "},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			files, err := ParseFiles(tc.srcs, workers)
			if tc.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) || files != nil {
					t.Errorf("%s, %d workers: files %v, err %v; want no files and an error starting %q", tc.name, workers, files, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, %d workers: %v", tc.name, workers, err)
				continue
			}
			var got []string
			for _, f := range files {
				got = append(got, f.Name)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("%s, %d workers: slots %v, want %v", tc.name, workers, got, tc.want)
			}
		}
	}
}
