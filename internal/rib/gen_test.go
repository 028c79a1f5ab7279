package rib

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// routesDigest is SHA-256 over every route of set's tables in order, each as
// its address, length and next hop.
func routesDigest(set *VirtualSet) string {
	h := sha256.New()
	var b [7]byte
	for _, tbl := range set.Tables {
		for _, r := range tbl.Routes {
			binary.BigEndian.PutUint32(b[0:], uint32(r.Prefix.Addr))
			b[4] = byte(r.Prefix.Len)
			binary.BigEndian.PutUint16(b[5:], uint16(r.NextHop))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorPinned pins the generator's output: the digest of every
// route, next hops included, of GenerateVirtualSet at share 0.5 over three
// set sizes, three table sizes and three seeds. The digests were recorded
// from the generator that deduplicated through a Go map and sorted through
// Table.Sort; every golden and benchmark digest downstream is a function of
// these routes, so a change to how the generator works must leave them be.
func TestGeneratorPinned(t *testing.T) {
	want := map[string]string{
		"k1/p400/s1":   "e588e6f0e807609cbcf2e9efd628c03f28adb6a118cad8e52062695526dd490e",
		"k1/p400/s2":   "52c049f4e4e467e3223aa55a78757d586902dad2ca595d2e82ff49ed385b95fc",
		"k1/p400/s3":   "0a3327fa3597eaf1da3036f230e63d378628128a9f5d9bd786236cbbc4c3b645",
		"k1/p3725/s1":  "8bde61029af67aef05623ce542cdfd6cf511f1320421603d807e0cfcc290241f",
		"k1/p3725/s2":  "300affc605a7079a3e253d2c240926647add9f86ddba65a699be28f42198472e",
		"k1/p3725/s3":  "197185aee460b311826a11a6beb441b2322420084221e0846fc0e95b3fc46c10",
		"k1/p30000/s1": "d37ca8a6ef90074f88747661eb3d96eefe935c6de8eb91e3b1cc2fbf749c0fd7",
		"k1/p30000/s2": "63be678b53b1155dd012d9e8e08e5657e1632a74f764463e623f83f796f3d7f4",
		"k1/p30000/s3": "94be3315a8b9f8331b5dc7f705ffb9995c3234e7ee2435c408341f76698dd778",
		"k3/p400/s1":   "62ef3150f1d1c8b5a8d46b84977f7b6308a238b66d699a8965a7af36c38cdcae",
		"k3/p400/s2":   "1c52d281e24b4fac4b101920cbdd507bf34c0f744c0058bcbca619e92569d2e7",
		"k3/p400/s3":   "5ba7b87a2adac493b0eacb336843ae1ffba86b4de57e8252b653d3222f199320",
		"k3/p3725/s1":  "8362bb57906b1cfe6171909bc3f1612d45361a8f80ed38d14d34be661cbbaf82",
		"k3/p3725/s2":  "2aeb8eaf2010dc72a6e463d64ff47287b4fb5bd4dc6a3213f5794222d9cd536d",
		"k3/p3725/s3":  "69317d265f39e5635557b0c5ce00421fc6f224804488618bfadb85aac2f19a1b",
		"k3/p30000/s1": "04619a9c0fc404f75448fd06d692804c77778406323114edf9b1ee018993b8b4",
		"k3/p30000/s2": "11e165953b10089736eb8b22def800ddf74a0b4e713ad9274a6d8b8f4c6807cb",
		"k3/p30000/s3": "3b97f7b9163a4f40ead1b4019725f3c2d6f5c1b497dd52ea43eebf2a7293189f",
		"k8/p400/s1":   "ee1a87856d09eed12ca83c00eaab3928d0403923f6aebcb2273c31ed47c5395c",
		"k8/p400/s2":   "8c78e34ac24b1fbcbbd61e4772496af28435c16118633fcff7bfc3b5116347b1",
		"k8/p400/s3":   "f5b4e09eddf90c77c3a414bd6f5c9d1650b9ea71ef48bc760752c4e97a98817d",
		"k8/p3725/s1":  "ba87eb55f8440f5e86c74c32e7a80e3c123e527b6c26dfd68d0e625bdae69bbf",
		"k8/p3725/s2":  "64a037e93f9701bd6ab5f3352c676af758e99d8079962273d505af62cb199e56",
		"k8/p3725/s3":  "a2586d04238cb06ee3cd3832e3f9a8e24f7a63ca31ce15ce82dea63684358ee2",
		"k8/p30000/s1": "296a28d2ab5a387852bcb6289e9dc381da67cc2cb9f589602200b94c21bd44a0",
		"k8/p30000/s2": "9b67f7396c3139c759d157744119349a9562a9a82b037bec92d7b38944089c85",
		"k8/p30000/s3": "3c9d282441926ed7103d1dc8751d052252f8ef9f06dd25ec06d7a7fafc6f5410",
	}
	for _, k := range []int{1, 3, 8} {
		for _, prefixes := range []int{400, 3725, 30000} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("k%d/p%d/s%d", k, prefixes, seed)
				set, err := GenerateVirtualSet(k, prefixes, 0.5, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := routesDigest(set); got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}
