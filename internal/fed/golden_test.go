package fed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Golden digests pin the Nebula engine's artifacts on every path it runs:
// bulk-sync rounds, semi-async rounds with churn, the local-only ablation,
// evaluation of never-seen devices, the compressed wire and the lossy link.
// Each digest hashes the Costs ledger, the byte-stable trace JSONL, the
// cloud model's parameter bits and the LocalAccuracy float bits. A change
// that moves any of them must update the constant here, explicitly.
//
// The constants hold for the amd64 kernels; other architectures skip.

// engineDigest folds one run's artifacts into a hex SHA-256.
func engineDigest(costs Costs, log []byte, nb *Nebula, acc float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(costs.BytesUp))
	put(uint64(costs.BytesDown))
	put(math.Float64bits(costs.SimTime))
	put(uint64(costs.Rounds))
	h.Write(log)
	for _, v := range nn.FlattenVector(nb.Model.Params(), nil) {
		put(uint64(math.Float32bits(v)))
	}
	put(math.Float64bits(acc))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenNebula builds a pretrained tiny HAR Nebula with a byte-stable trace
// and an 8-device fleet.
func goldenNebula(t *testing.T, cfg Config) (*tensor.RNG, *Nebula, *bytes.Buffer, []*Client) {
	t.Helper()
	rng := tensor.NewRNG(301)
	task := HARTask(302, ScaleQuick)
	cfg.Workers = 2
	nb := NewNebula(task, cfg)
	nb.TrainCfg.Epochs = 1
	buf := new(bytes.Buffer)
	nb.Trace = trace.NewWithClock(buf, nil)
	nb.Pretrain(rng, proxyFor(rng, task, 10))
	return rng, nb, buf, harFleet(rng, task, 8, 2)
}

func TestGoldenEngineDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on the amd64 kernels")
	}
	base := tinyCfg()
	base.Rounds = 3
	base.DevicesPerRound = 5
	runs := []struct {
		name, want string
		run        func(t *testing.T) string
	}{
		{"sync", "9726f737a3ec9d97cdc8a2660ca844512f6231ec21cad7ce292c0472a13ecc14", func(t *testing.T) string {
			rng, nb, buf, clients := goldenNebula(t, base)
			nb.Adapt(rng, clients)
			acc := nb.LocalAccuracy(clients)
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
		{"async", "cd71461c1d62b9d8643cde21e59ef890d24e420d88657decd6f5cd37abedf39a", func(t *testing.T) string {
			cfg := base
			cfg.Async = true
			cfg.DevicesPerRound = 8
			rng, nb, buf, clients := goldenNebula(t, cfg)
			pinSlowDevice(clients[0], 1e6)
			fleet := clients[:7]
			nb.Round(rng, fleet) // calibration
			nb.Round(rng, fleet) // the straggler pends
			if nb.PendingStragglers() == 0 {
				t.Fatal("pinned straggler did not pend")
			}
			// The straggler leaves with work in flight; device 7 joins.
			fleet = append(append([]*Client(nil), clients[1:7]...), clients[7])
			nb.Round(rng, fleet)
			nb.Round(rng, fleet)
			acc := nb.LocalAccuracy(fleet)
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
		{"local-only", "36223d22c10571378e9764ab74158bfce056a8fe630de94e2f01c500b9e36fe4", func(t *testing.T) string {
			rng, nb, buf, clients := goldenNebula(t, base)
			nb.CloudCollaboration = false
			nb.Adapt(rng, clients)
			acc := nb.LocalAccuracy(clients)
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
		{"eval-new", "928c6ccf8a1158d465b699d7c1b0049b3565e8db20e9185c947eac5af746d2f4", func(t *testing.T) string {
			rng, nb, buf, clients := goldenNebula(t, base)
			nb.Adapt(rng, clients[:4])
			acc := nb.LocalAccuracy(clients) // devices 4..7 never trained
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
		{"wire", "e8f03d8847a7ba1ed484a00edf369564adc8b80cf9b364c5a8820e564de510f0", func(t *testing.T) string {
			cfg := base
			cfg.WireCompress = true
			cfg.WireTopK = 0.25
			rng, nb, buf, clients := goldenNebula(t, cfg)
			nb.Adapt(rng, clients)
			acc := nb.LocalAccuracy(clients)
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
		{"faults", "42e0e5005a23b1b0c011faa4b890d748c7ee68518411c297992d273dee813adf", func(t *testing.T) string {
			cfg := base
			cfg.DropoutProb = 0.2
			rng, nb, buf, clients := goldenNebula(t, cfg)
			fc, err := edgenet.ParseFaultSpec("drop=0.3,seed=9")
			if err != nil {
				t.Fatal(err)
			}
			nb.Faults = NewFaultModel(fc)
			nb.Adapt(rng, clients)
			acc := nb.LocalAccuracy(clients)
			return engineDigest(nb.Costs(), buf.Bytes(), nb, acc)
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if got := r.run(t); got != r.want {
				t.Errorf("%s digest = %s, want %s", r.name, got, r.want)
			}
		})
	}
}
