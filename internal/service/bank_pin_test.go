package service

import (
	"testing"

	"graphsketch/internal/stream"
)

// survivingBanks pins the bytes of every sparsifier level bank and every
// spanner-log chunk, one SHA-256 per bank in bank order (sparsifier levels,
// then log chunks), on the publishFixture bundle and the small test bundle,
// each with its base stream loaded and again after its toggle step. They
// were captured while the bundle still carried a separate min-cut stack
// ahead of these banks; dropping that stack must not move one byte of
// them.
var survivingBanks = map[string][]string{
	"fixture/base": {
		"bb59a189c3e985fb27f536161b62546ff4f4b488efa363ae15ce71f7a92655d3",
		"e0dcc9b91bf29bf15ccac0215a0f38b88a33306b954d18568cbf2e7b8f1dd7e1",
		"126c752d8918197a1118a1fedb8913bddabf3e49a9769c617657a350d471660f",
		"b5391058a1598220167f39e454b857d1a38f4592e4cdeb2b67450fb7d9b8f36e",
		"05df38a512d96a9f75a2ac32887ba14c657e2ce7ef7a3edb10b9a9044ea8ebfe",
		"99e92596f49b194a5b10090f399c6fa1620e7171581e27c80487e3f6cfad71dc",
		"4ccdfb8c52bb15c780cac4684ccd24770f41cbf04a14d5cb8471373904f10288",
		"868e2d00f4d14624c04f6abf06e707d6c617d276867f1b355aad3db472e06453",
		"1c2fd3d22a4d8ff1052c8407cda91beac410834b8a9212d366671730064d4766",
		"2cfeeffe2c55fe51506d2b24a5b2719189605f92c60683edb04b1543e77d324c",
		"c2fe4b49b7136cc88e3a19442fad2aca7a51ac211be08cbadb06ee1294961f27",
		"6bc7afca4a828bf5199e0bddff384c182a078b0ce3b5044fcf8630e6549fd21d",
		"a4ebb291bce946bd0ca60f690f221d5a1bb7d2d5de87003d525e43c1555cb8f5",
		"c09649d69d09fc29c932ba1b3965a9df6b77f247986b9fafbd84eed299756eab",
		"29c895f81d93cf21834cf54234b8373a753c90178702045dc47d3a663b89a232",
		"9f91e1a60bf65b9aecc3d8728f84852bff8f20d96cfc1a2acd8e3475cc564899",
		"1415dc6e2479faf2347ff8cacc8307c35c36246551e8821053d604ede5f1d00f",
	},
	"fixture/toggled": {
		"1868a4e35161c4d9e9c34606d1fcd2d45a08198da5a31eb35d7680613f82d1d0",
		"82a94d1c2cb204a25db241c7e77b513af88afeb227dc30a4a63dd990ff18c380",
		"e853d61e64a18d6ab21e4f9a30a06dd96bddc0f1ed3094f7be88d1a02640a31a",
		"8cc532c8c07d4477a13ac770c5808380b2e206d4bbe7cab901ed4e64e1b8a77d",
		"654597a6fcc95d8fa92ce63fc41c3aba230362548fbb1f081f0e70dbbc44de9c",
		"95dd82bb925210b41e6d73b922a0ac2dcf868c5efa5448fa60f9e7b72bf8db2d",
		"11eb544420a3506909abedbaa96608416c81092d3240f5548d8cde86276137d7",
		"6079bb07030171374ea94dc4417f3214cde07dc091959d551f8aedec5def266e",
		"314ec6a10feb031933d6391d491c93a531104034c0d2773296882feaeff630c1",
		"6772c8c8ac634163ee042111afa7f3cef2324d0f45307b61c6d881919a6b4c9a",
		"7e6a9d6a3e00b88f9e051871c1954fa85a7474a9cad6c2d9330e85ce561c7f9d",
		"61d36b3ec7045c463b958f15642f2d8b3e188fffb5de887bc200ea9d51ccf5d9",
		"480744cd59ecd5ed92d8f578c9217b73506ef21c9b896221d4d48ed4ad91081e",
		"00896bc5ec2a740f04a192a091a56090bd57d3541cfb07ad6d2f335f0b188aa4",
		"7e7dc7616df0c97826dfa4a8ea4170582ae0e50dc5c18c28703410c4d25fee02",
		"d4500b0c0e9cb7fb0170a902e207d75ad1b1b93eaa38c0194ff673e639b33416",
		"d30b57ea848edbe11b6d2770bae174614986b3eb327d3d70ed06e9c63cebc8b4",
	},
	"small/base": {
		"fbdfca064a7863c5442a2be703be5df57eda130a9efb0877167e158c43532fd8",
		"424a47147688a3faf5eb14b9868e516ba68e3f08efefcf3478b21eb157b58f17",
		"f884e0ac9e8b7232d81053f9864806466ba7e4220e2859afd9d90e9da3b7568a",
		"8940ca7ab7b1f991e9f88af3df666e83b6271edf6fc0b49cd494df3c524261f8",
		"8da48498c06dc65c1edffeb46a4dfe9a7b268e1c1f907e3e80949a4a57fb21c4",
		"c8e2a5ab6fc85e2e3074899c7321e738fe0445224ba3918140492f4849a48586",
		"4fa88f207572e98d9d96de5df12b25900c52adea09d0584d23f2d72aca419d71",
		"54a2bcd31396ec6865f62335c174db29d431bd1d9f18bc8b0a271a9cebe505f3",
		"54a2bcd31396ec6865f62335c174db29d431bd1d9f18bc8b0a271a9cebe505f3",
		"146abe109f6155fb868fae527fdfac4e535ca170b919af32719b9afb06976d49",
		"af80576ae2f6a324be8facad07a1c6b0352a2072a10085638ba43604ffd213f5",
		"200cbb2c325cfdb89db1fa32261e5ebfb1f9d0da95df53d89dc27de934543a16",
		"49a43181987f2a535015e52402f4f47f0db803b757c01c538cd66360b3d02c37",
		"a13526ee7d194124d0840480b1ceabb3e8ea32c19cf4e7113582c1823fd47d79",
		"b88d5afd21a2b704e980f931e2482f545492cef31cd9a2ce757cefa28c97a4fe",
		"b26c834fd8f3c473e92089aa1e46ceb29facd2bea9e1d461b22d7ac35d304e4a",
		"d994ed2e3720d92b7bbc3703b8955076f254219da705a29f540d1d9b4f9922b1",
	},
	"small/toggled": {
		"bff5cb379dbe4245186e1502af9360996e58e4abe100801ef8114e267d0eba5b",
		"00c7cda365dd6eb303d122e4a5f0d2f5d40906aa1a3907f86d54bb22d534fa19",
		"4624440891fd6fbc3685b9b8e0fcb805ec39061601d28b7cf6c251949094ef8e",
		"84ce279372359993e21349ca69f5f205ce6fc5b8a35d72ff1a6f8ce59fb4926c",
		"441a9485152f57808457a170b55c373c5f78e17258252933b33949562e65202e",
		"e799edd27611483649db8b4ae0d417ba53be79d3d30af3347d61fdbf6aeb0b58",
		"fcb56ad51aea2cbb678a1ec54c732df0bf787c4f4f00e1b594f932ea2797b249",
		"e21a9dcabb7b81e105cb1fa5ea1cd998a8dce6b71edb669879340c648143ebd7",
		"54a2bcd31396ec6865f62335c174db29d431bd1d9f18bc8b0a271a9cebe505f3",
		"9ce9853e76bac4cb58a9f63808f621ddc43270d53c6d7136b474f73bbf7c891d",
		"5adac2cb138bc176a7f2030b0fa9368d90f3bb1457c04f86bfa7b4ef012cb4fa",
		"e946790353ffd12961c3c1e4f19e599a5a409956deeaf5ca5c09e80cfc7ee872",
		"84e0baa456b3f439acdd3d936a60ad3bad5aa1d26f2264e849c122e066d26186",
		"f770bd0cdc524e4633911135e222a2f6c3227e622004b00c86c27cf74deeb9bc",
		"4f1db455dc63da3f28b9a9aa0f7a87a87b849bae9091603dcaf54d171a5a73f3",
		"cd4df2c8996bb9bb0fbf92b5e7e52d5b0032908906b364b893973cd68831bde6",
		"731ec3420580d1142ceae65165af983a2138146b7aed4b15a26454d45ae21df6",
	},
}

// bankSHAs returns the SHA-256 of each sparsifier bank and each log chunk
// of b, in bank order.
func bankSHAs(t *testing.T, b *Bundle) []string {
	t.Helper()
	b.coalesceLog()
	var out []string
	for i := 0; i < b.sp.NumBanks(); i++ {
		data, err := b.sp.AppendBankState(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sha(data))
	}
	for c := 0; c < logBankCount; c++ {
		data, err := b.appendBank(nil, b.NumBanks()-logBankCount+c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sha(data))
	}
	return out
}

func TestSurvivingBanksPinned(t *testing.T) {
	cfg, base, toggles := publishFixture()
	small := testBundleConfig()
	fixtures := []struct {
		name      string
		cfg       BundleConfig
		base, tog []stream.Update
	}{
		{"fixture", cfg, base, toggles},
		{"small", small, bundleStream(3).Updates, bundleStream(8).Updates[:256]},
	}
	got := map[string][]string{}
	for _, f := range fixtures {
		b := NewBundle(f.cfg)
		b.UpdateBatch(f.base)
		got[f.name+"/base"] = bankSHAs(t, b)
		b.UpdateBatch(f.tog)
		got[f.name+"/toggled"] = bankSHAs(t, b)
	}
	if len(got) != len(survivingBanks) {
		t.Fatalf("%d stages, want %d", len(got), len(survivingBanks))
	}
	for stage, shas := range got {
		want := survivingBanks[stage]
		if len(shas) != len(want) {
			t.Fatalf("%s: %d banks, want %d", stage, len(shas), len(want))
		}
		for i := range shas {
			if shas[i] != want[i] {
				t.Errorf("%s: bank %d sha %s, want %s", stage, i, shas[i], want[i])
			}
		}
	}
}
