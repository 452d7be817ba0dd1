package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestGoldenTrialRows pins the sha256 of fixed-seed trial rows in every
// mode: exactly-once with the end-to-end consumer group, at-least-once,
// the transactional pipeline and the cooperative/eager churn pair. The
// trial runners share one experiment template and one row header, and
// same-timestamp DES events fire in scheduling order, so a change in how
// a trial assembles its run shows up here as a digest change.
func TestGoldenTrialRows(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"exactly-once+e2e", Config{Mode: ModeExactlyOnce, E2E: true, Messages: 150}, "9d4876274ed95551970f51c0ec5be2ce46e43177cdc82a19020374d7e89e0e4c"},
		{"at-least-once", Config{Mode: ModeAtLeastOnce, Messages: 150}, "6524a70155389496d8cf5d8fc075d1d723e079f3fa7fde0be1fa7b85ba137eb4"},
		{"txn", Config{Mode: ModeTxn, Messages: 100}, "3d8fcb100070303239149b42b909f1865056b819243df5947d0969046ecc6a86"},
		{"coop", Config{Mode: ModeCoop, Messages: 150}, "939ad275213f536fc06a6b44ad9ef94ea98ecc650484d9f7078abd288b6e8057"},
	}
	for _, c := range cases {
		var rows []Row
		for _, seeds := range [][2]uint64{{11, 12}, {20260806, 42}} {
			row, err := RunTrial(c.cfg, seeds[0], seeds[1])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rows = append(rows, row)
		}
		out, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
