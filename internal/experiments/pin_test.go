package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/model"
)

// TestQuickWorldIsPinned pins the quick-scale world every experiment, test
// and ledger run trains: the tokenizer's fingerprint and a digest of each
// n-gram model's artifact. Training is meant to be a pure function of the
// corpus, so a change that moves any of these moves every stream and figure
// too, and must say so by updating the values here.
func TestQuickWorldIsPinned(t *testing.T) {
	env := sharedEnv(t)
	if got, want := env.Tok.Fingerprint(), "c0d30d092575d3af096a2156f605391a"; got != want {
		t.Errorf("tokenizer fingerprint = %s, want %s", got, want)
	}
	digest := func(lm model.LanguageModel) string {
		var buf bytes.Buffer
		if err := lm.(*model.NGram).Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	if got, want := digest(env.Large.LM), "8f34841ddc7ca830b621debe5c8daeaa646c933df2eeaa2f6aeb2d20609ff89b"; got != want {
		t.Errorf("large n-gram artifact sha256 = %s, want %s", got, want)
	}
	if got, want := digest(env.Small.LM), "c55f86d0151bc570c7481d040cc84b967ad4dda37f258a4f54436f2a33e11cba"; got != want {
		t.Errorf("small n-gram artifact sha256 = %s, want %s", got, want)
	}
}
