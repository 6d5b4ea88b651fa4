package idaax_test

import (
	"reflect"
	"strings"
	"testing"
)

// TestCallBindsDeclaredSignature: a CALL binds its arguments to the
// procedure's declared signature before anything runs. A value of the wrong
// kind, one outside the accepted list, an extra argument, or a table
// argument that is not exactly the name(s) its kind takes is refused with an
// error naming the position and parameter, and the CALL creates or drops no
// table.
func TestCallBindsDeclaredSignature(t *testing.T) {
	for _, tc := range []struct {
		user, sql string
		want      string // a substring of the refusal; "" when the CALL succeeds
	}{
		{"OWNER", "CALL IDAX.KMEANS('PTS', 'X,Y', 'two', 'M1')", "argument 3 (k)"},
		{"OWNER", "CALL IDAX.KMEANS('PTS', 'X,Y', 2.9, 'M1')", "argument 3 (k)"},
		{"OWNER", "CALL IDAX.BIN('PTS', 'X', 'many', 'OUT')", "argument 3 (bins)"},
		{"OWNER", "CALL IDAX.IMPUTE('PTS', 'X,Y', 'MEEN', 'OUT')", "argument 3 (strategy)"},
		{"OWNER", "CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'SRC', 'YES')", "argument 3 (mode)"},
		{"OWNER", "CALL IDAX.SUMMARY('PTS', 'X', 'junk', 'more')", "argument 3"},
		{"OWNER", "CALL IDAX.SUMMARY('PTS,PTS', 'X')", "argument 1 (in_table)"},
		{"SYSADM", "CALL IDAX.SUMMARY('PTS WHERE X > 5', 'X')", "argument 1 (in_table)"},
		{"OWNER", "CALL IDAX.LINEAR_REGRESSION('PTS', 'Y', 'X', 'M1,M2')", "argument 4 (model_table)"},
		{"OWNER", "CALL IDAX.LINEAR_REGRESSION('PTS', 'Y', 'X')", "argument 4 (model_table)"},
		{"OWNER", "CALL SYSPROC.ACCEL_QUERY_HISTORY(5, 'SLOWW')", "argument 2 (filter)"},
		{"OWNER", "CALL SYSPROC.ACCEL_METRICS('x')", "argument 1"},
		{"OWNER", "CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'SRC', 'OFF')", ""},
	} {
		t.Run(tc.sql, func(t *testing.T) {
			sys := newAccessFixture(t, "IDAA1", "OWNER", outAbsent)
			before := sys.Tables()
			_, err := sys.Session(tc.user).Exec(tc.sql)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want success, got %v", err)
				}
				if sys.ReplicationEnabled("SRC") {
					t.Fatal("'OFF' left replication enabled")
				}
				return
			}
			if err == nil {
				t.Fatalf("want a refusal naming %q, the CALL succeeded", tc.want)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "usage:") {
				t.Fatalf("want a refusal naming %q with the usage, got %v", tc.want, err)
			}
			if after := sys.Tables(); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused CALL changed tables:\nbefore %+v\nafter  %+v", before, after)
			}
			if !sys.ReplicationEnabled("SRC") {
				t.Fatal("refused CALL turned replication off")
			}
		})
	}
}

// TestCallOutputMayNotAliasItsTables: an output table may name neither an
// input of the same CALL nor another of its outputs, since the CALL drops
// each output before writing it. The CALL is refused before anything is
// dropped, on a single accelerator and on the 3-member SHARDS group.
func TestCallOutputMayNotAliasItsTables(t *testing.T) {
	for _, backend := range []string{"IDAA1", "SHARDS"} {
		for _, tc := range []struct{ sql, want string }{
			{"CALL IDAX.PREDICT('MODEL', 'PTS', 'ID', 'PTS')", "argument 4 (out_table)"},
			{"CALL IDAX.KMEANS('PTS', 'X,Y', 2, 'K2', 'K2', 'ID')", "(assign_table)"},
			{"CALL IDAX.SPLIT_DATA('PTS', 'TR', 'TR', 0.5, 1)", "(test_table)"},
			{"CALL IDAX.STANDARDIZE('PTS', 'X', 'PTS')", "argument 3 (out_table)"},
		} {
			t.Run(backend+"/"+tc.sql, func(t *testing.T) {
				sys := newAccessFixture(t, backend, "OWNER", outAbsent)
				before := sys.Tables()
				_, err := sys.Session("OWNER").Exec(tc.sql)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("want a refusal naming %q, got %v", tc.want, err)
				}
				if after := sys.Tables(); !reflect.DeepEqual(before, after) {
					t.Fatalf("refused CALL changed tables:\nbefore %+v\nafter  %+v", before, after)
				}
			})
		}
	}
}
