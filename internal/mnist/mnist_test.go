package mnist

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(50, 42)
	b := Generate(50, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d differs between runs with same seed", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := Generate(10, 1)
	b := Generate(10, 2)
	same := 0
	for i := range a {
		if a[i].Pixels == b[i].Pixels {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateClassBalance(t *testing.T) {
	imgs := Generate(100, 7)
	counts := make(map[int]int)
	for _, im := range imgs {
		counts[im.Label]++
	}
	for c := 0; c < NumClasses; c++ {
		if counts[c] != 10 {
			t.Errorf("class %d count = %d, want 10", c, counts[c])
		}
	}
}

func TestRenderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Render(-1, rng); err == nil {
		t.Error("negative digit accepted")
	}
	if _, err := Render(10, rng); err == nil {
		t.Error("digit 10 accepted")
	}
}

func TestRenderedDigitsHaveInk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for d := 0; d < NumClasses; d++ {
		img, err := Render(d, rng)
		if err != nil {
			t.Fatal(err)
		}
		ink := 0
		for _, p := range img.Pixels {
			if p >= 128 {
				ink++
			}
		}
		// Every glyph must have a plausible stroke mass: not blank, not
		// mostly filled.
		if ink < 20 || ink > PixelCount/2 {
			t.Errorf("digit %d has %d ink pixels", d, ink)
		}
		if img.Label != d {
			t.Errorf("digit %d labeled %d", d, img.Label)
		}
	}
}

func TestDigitsAreDistinguishable(t *testing.T) {
	// Averaged over jitter, different digits must differ in many pixels;
	// identical class renders must be more similar than cross-class.
	rng := rand.New(rand.NewSource(3))
	mean := func(d int) []float64 {
		acc := make([]float64, PixelCount)
		const n = 20
		for i := 0; i < n; i++ {
			img, _ := Render(d, rng)
			for p, v := range img.Pixels {
				if v >= 128 {
					acc[p]++
				}
			}
		}
		for p := range acc {
			acc[p] /= n
		}
		return acc
	}
	m1 := mean(1)
	m8 := mean(8)
	var dist float64
	for p := range m1 {
		d := m1[p] - m8[p]
		dist += d * d
	}
	if dist < 10 {
		t.Errorf("digits 1 and 8 too similar: L2² = %v", dist)
	}
}

func TestBinarize(t *testing.T) {
	var img Image
	img.Pixels[0] = 127
	img.Pixels[1] = 128
	img.Pixels[2] = 255
	b := img.Binarize()
	if b[0] != 0 || b[1] != 1 || b[2] != 1 {
		t.Errorf("Binarize thresholds wrong: %v %v %v", b[0], b[1], b[2])
	}
}

func TestPackLayout(t *testing.T) {
	var img Image
	img.Pixels[0] = 255      // row 0, col 0
	img.Pixels[27] = 255     // row 0, col 27
	img.Pixels[28] = 255     // row 1, col 0
	img.Pixels[783] = 255    // row 27, col 27
	img.Pixels[5*28+3] = 255 // row 5, col 3
	p := img.Pack()

	row := func(r int) uint32 {
		return uint32(p[r*4]) | uint32(p[r*4+1])<<8 | uint32(p[r*4+2])<<16 | uint32(p[r*4+3])<<24
	}
	if row(0) != (1 | 1<<27) {
		t.Errorf("row 0 = %#x", row(0))
	}
	if row(1) != 1 {
		t.Errorf("row 1 = %#x", row(1))
	}
	if row(27) != 1<<27 {
		t.Errorf("row 27 = %#x", row(27))
	}
	if row(5) != 1<<3 {
		t.Errorf("row 5 = %#x", row(5))
	}
	// Padding bytes beyond 112 must be zero.
	for i := Side * 4; i < PackedSize; i++ {
		if p[i] != 0 {
			t.Errorf("padding byte %d = %d", i, p[i])
		}
	}
}

// packLoop is Pack one pixel at a time: Binarize's threshold, one bit
// per pixel. It is the oracle for Pack's word-at-a-time gather.
func packLoop(im *Image) [PackedSize]byte {
	var out [PackedSize]byte
	for r := 0; r < Side; r++ {
		var w uint32
		for c, p := range im.Pixels[r*Side : (r+1)*Side] {
			w |= uint32(p>>7) << uint(c)
		}
		binary.LittleEndian.PutUint32(out[r*4:], w)
	}
	return out
}

// TestPackMatchesBinarize holds Pack to packLoop on random images, on
// all-0 and all-255 images, and on the threshold's neighbours in every
// column, and to Binarize's bits on the random ones.
func TestPackMatchesBinarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	imgs := make([]Image, 40)
	for i := range imgs {
		rng.Read(imgs[i].Pixels[:])
		bits := imgs[i].Binarize()
		p := imgs[i].Pack()
		for j, b := range bits {
			r, c := j/Side, j%Side
			if got := p[r*4+c/8] >> uint(c%8) & 1; got != b {
				t.Fatalf("image %d pixel (%d, %d): packed bit %d, Binarize %d", i, r, c, got, b)
			}
		}
	}
	var full Image
	for i := range full.Pixels {
		full.Pixels[i] = 255
	}
	imgs = append(imgs, Image{}, full)
	// One image per (column, value): every other pixel keeps its random
	// value, the column's pixels sit on the threshold's edges.
	for c := 0; c < Side; c++ {
		for _, v := range []byte{0, 127, 128, 255} {
			im := imgs[c]
			for r := 0; r < Side; r++ {
				im.Pixels[r*Side+c] = v
			}
			imgs = append(imgs, im)
		}
	}
	for i := range imgs {
		got, want := imgs[i].Pack(), packLoop(&imgs[i])
		if got != want {
			t.Fatalf("image %d: Pack = %x, packLoop %x", i, got, want)
		}
		for b := Side * 4; b < PackedSize; b++ {
			if got[b] != 0 {
				t.Fatalf("image %d: padding byte %d = %d", i, b, got[b])
			}
		}
	}
}

func TestPackedBatchFillsOneDMATransfer(t *testing.T) {
	// 16 images at PackedSize bytes must exactly fill the 2048-byte DMA
	// limit (§4.1.3).
	if 16*PackedSize != 2048 {
		t.Fatalf("16 × %d = %d, want 2048", PackedSize, 16*PackedSize)
	}
}

func TestLoadSplit(t *testing.T) {
	ds := Load(30, 10, 5)
	if len(ds.Train) != 30 || len(ds.Test) != 10 {
		t.Fatalf("split sizes %d/%d", len(ds.Train), len(ds.Test))
	}
	// Train and test come from different jitter streams.
	if ds.Train[0].Pixels == ds.Test[0].Pixels {
		t.Error("train and test share images")
	}
}

func TestStringArt(t *testing.T) {
	img, _ := Render(0, rand.New(rand.NewSource(9)))
	s := img.String()
	if len(s) != (Side+1)*Side {
		t.Errorf("ASCII art length %d", len(s))
	}
}
