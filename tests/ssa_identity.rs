//! "Identical by construction", checked for SSA construction: the builder
//! may change how it walks a kernel body and what it allocates, but never
//! the structure tree it returns, the names it records or the initial
//! e-graph it builds. Per kernel the table holds the FNV-1a of the
//! `SsaKernel` node tree (its `Debug` text), of `initial_values` and of
//! `array_names`, then `num_loops`, then the length and FNV-1a of the
//! initial graph's snapshot — which pins every `add` id, every union the
//! constant folding made, every parents-list order and the memo. The 19
//! suite kernels come first, then 32 genkern seeds at
//! `GenConfig::default()` and 32 at the `{ max_stmts: 2, max_depth: 2 }`
//! shape (the kernels `extract_identity` pins).

mod common;

use accsat_benchmarks::genkern::{generate_kernel, GenConfig};
use accsat_ir::{fnv1a, innermost_parallel_loops, parse_program};
use accsat_ssa::{build_kernel, SsaKernel};

const EXPECTED: &str = "\
BT bt_zsolve | ce90059c82f82fd9 58b77b0a96b4c856 8cf9677739668148 0 | 7182 d617e5a79faee3a5
BT bt_rhs | c2c7d8db55050432 1aea88c6823dde5a fa7896307416786b 0 | 2090 cf3c236166e0c652
CG cg_spmv | 3e35407ce8deb81b 1b18dbf6a9985539 94222b4149fa2d52 1 | 752 68de57606000cffb
CG cg_axpy | a59d94f02854cedd a25ba34b0e0784c1 6f6a0b30083e99e9 0 | 535 56b33b523565b0c3
EP ep_gauss | 0c379f5c4aa39cef 509b860dc44ba31b 56c9dbf918c13c9e 1 | 3815 814a4392d739c85a
FT ft_butterfly | c25fa882bfb660f1 88e0ed17cdb7e370 67e47d83c8ab7164 0 | 1193 56b5de6f37209afa
FT ft_evolve | 57227b15a5c7ab73 9f0015f6ca10a674 75c86ec25e3b44c5 0 | 708 4a03240516e28ee2
LU lu_jacld | 1f81999535366230 0b90eeb2dd5c8fd3 67fa64b6c3e4abd0 0 | 3437 13f7c509f6982f3d
MG mg_resid | 2ea6175a8d77b3b9 ae27a2ed3b10a6eb cdc6c99b6ec67992 0 | 1755 93eca7ccd0f370e0
SP sp_lhs | 9c209fc3581f0ef8 a96ce32076557bcb 25cf4005d4b4415a 0 | 2088 d5f35db161da1177
ostencil stencil_jacobi | ae909c620f3c42b4 637bfc27e38177dc c1044c654509e910 1 | 1564 741695a590b03e9d
olbm lbm_stream | e97ba4eea3b19a46 4d70c97bc9252f1b 579741309990b474 0 | 6529 06cd5f97f2284572
omriq mriq_computeq | 83f8a3f519648808 d34d23944c761ded 3300e4211d147d14 1 | 2342 c6dbf76b95bbacec
ep ep_gauss | 0c379f5c4aa39cef 509b860dc44ba31b 56c9dbf918c13c9e 1 | 3815 814a4392d739c85a
cg cg_spmv | 3e35407ce8deb81b 1b18dbf6a9985539 94222b4149fa2d52 1 | 752 68de57606000cffb
cg cg_axpy | a59d94f02854cedd a25ba34b0e0784c1 6f6a0b30083e99e9 0 | 535 56b33b523565b0c3
csp sp_lhs | 9c209fc3581f0ef8 a96ce32076557bcb 25cf4005d4b4415a 0 | 2088 d5f35db161da1177
bt bt_zsolve | ce90059c82f82fd9 58b77b0a96b4c856 8cf9677739668148 0 | 7182 d617e5a79faee3a5
bt bt_rhs | c2c7d8db55050432 1aea88c6823dde5a fa7896307416786b 0 | 2090 cf3c236166e0c652
gen default 0 deep_nest | ee2f087d7a72f5c5 fee7b36f94e99093 9af2b07051794929 2 | 3647 eb41d5150e53edb6
gen default 1 phi_if | 8d2c86023789c444 a8442160074e8ea5 8a8b956aef684c59 0 | 4273 6b071b30168b4829
gen default 2 while_loop | c5b9563d13f4bf90 491b0e2988edae8e 4e808c8f2ddb4f8d 0 | 1797 fc7fba5bcb5d854c
gen default 3 arr_cond | 0ef8577f19032cb1 0df59d5eaeb93739 8b3984b24a19917d 0 | 4721 3aa6d926c47d3b7f
gen default 4 seq_loop | ee6273eda8c9f69a 231d16c7bcbb6173 de747111f5af0d0f 1 | 1530 37d45cfcbda5482c
gen default 5 seq_loop | d8bcb9d579b541b1 f15010501b7dd058 adf256ed1e16c03d 0 | 2192 6a4d60774dabca03
gen default 6 stencil1d | f7d74a80facb1910 f5dede01c8c918f3 4fa8009d9191733a 0 | 1456 6429ed9b2458138a
gen default 7 deep_nest | 57460fa398671b25 3c05c2be481de1ef 2af750998ec7abb6 0 | 1016 0621cd376549aa07
gen default 8 while_loop | a8394d0ff6ed46f9 0200f4e8912f1e60 7f7ed2dfd4e40a03 0 | 2173 6cd6f23c9c6f7049
gen default 9 spec_mix | 1f142b680ae960b6 22ac541808c24953 fb5d53bd1ea33fe5 1 | 3060 d88bbf289acca758
gen default 10 seq_loop | bd394197c38a8acd ac5f34b7815ddb50 991b6fb649d17a5f 1 | 3071 55e15caec715e21f
gen default 11 arr_cond | c4ce480916288dfd 1f1056989dc97b90 2769d38df0a2bbd7 0 | 2371 f9038e8b6b4ef987
gen default 12 twod | 4d111786005c2f7f 0ce5ce22ac358bf8 9a0a0bfd2e55f527 0 | 4244 512132a109b1a062
gen default 13 deep_nest | 0ed2b2929d81c85a d7e33acaa1f7a8bb a312a2fef0698e2b 0 | 2486 4bf1e6c3ba5ecd8a
gen default 14 while_loop | a71fc66a2b9fa8d0 fce4afdfa505608a 4d94fece53c83d05 0 | 2087 44f5fd80f96cc295
gen default 15 arr_cond | dc4b2b4c881623c4 2d1a4c8323f821d6 a6bfdd074259b839 0 | 2317 7cd51946aebd656c
gen default 16 deep_nest | 0f4c3a5d43a91132 1ba7b3bf037c9ee9 68e8d430ee60863b 6 | 5928 9f2c6c247f7a675c
gen default 17 twod | a089e29498b609b5 e540713fc9f7d607 541d0a5a62b08389 0 | 5987 4cd91ee4cdb47bc8
gen default 18 seq_loop | 23bf97ccde7a8478 a771797b10f8f28c 0f6ca9ffa0319c27 1 | 2066 4b16080eb8f6f9b1
gen default 19 spec_mix | b60847f16e117894 275d55ec146ab938 2e2db81e384b292d 0 | 1835 f69cf3b49da68955
gen default 20 spec_mix | 82c3fa7afe7ff6d4 e6dfdafc1ecdbea4 7c398c0835efc949 0 | 1272 bd0de5e221db678a
gen default 21 deep_nest | 0007d73ae4b6d70c e8c763b604a72101 e752b1600ebd8de5 5 | 6039 c796474db0704c95
gen default 22 seq_loop | b6d912d7d89fe995 836b716e2e0a37ec 052663a905997355 0 | 2320 0fee1015941e34e2
gen default 23 while_loop | 4f838d443768073d 31d25af605f8ccbc b4dbc24777db692f 0 | 2985 28a78cc878e8ac14
gen default 24 spec_mix | 75d7dcd3d3fd8df9 7a5f28ad3a01f266 76dd85a89c26ab65 0 | 2279 dc7cffb991ba931e
gen default 25 phi_if | bfc2d8546d23f468 f6d849c0da2198b5 76dd85a89c26ab65 0 | 1997 2eb29bc904cfe5b7
gen default 26 seq_loop | e01ab441097c9ec6 e424085e0050ebeb 74c15f69f9e2be03 1 | 3681 fa0533d986c9a8a4
gen default 27 seq_loop | 5f3d8cf96cecca2f d0ff1e1575cb9a78 d790ed63d5c9c32f 4 | 5502 17e1355a619f72b3
gen default 28 spec_mix | 935488b23e0543d4 daa4f9f0000d0859 48150fee0f6d78d7 0 | 5239 f87fa4fd632f3520
gen default 29 stencil1d | 8469194ed2a097b8 99814137ba5be76a 4cc751682b71735b 0 | 2297 817022d9ffedf8fd
gen default 30 while_loop | ca7aa307cce27e55 d232db312906316a 9ae6ed6c89d11865 0 | 1717 4be86d3f45ecce7b
gen default 31 seq_loop | 731e52d3d9cbbb11 804df7980b83d8b6 0b8a95ff1d838469 0 | 1902 5d2aeb58b39f55ef
gen small 0 deep_nest | 436df00a1e4fd1e7 13d0e281f137a1f5 8c6eadbc8f817135 2 | 2393 48e69e22a7cedd08
gen small 1 phi_if | 93d08a1983e0c854 558664396243af80 9c916959d83190f7 0 | 1465 ed33d7c64938d2d0
gen small 2 while_loop | 618f1666b9141ba8 a6cf15de83df3619 fc3905ac3b1b1071 0 | 875 8ccd804d3c78d6b7
gen small 3 arr_cond | efe45ef5e7518c8e ec28b0d8fae1e18b d790ed63d5c9c32f 0 | 2211 4b10f4d5b4f7b400
gen small 4 seq_loop | ee6273eda8c9f69a 231d16c7bcbb6173 de747111f5af0d0f 1 | 1530 37d45cfcbda5482c
gen small 5 seq_loop | f07eee47bf448178 aced1c807d3fb064 adf256ed1e16c03d 0 | 1460 f82c318871e1ba9a
gen small 6 stencil1d | 7a8c53e39ea9fb8e 3f83b35229eff4c8 e6e636e31e886c69 0 | 900 50a5f5d32b825749
gen small 7 deep_nest | 57460fa398671b25 3c05c2be481de1ef 2af750998ec7abb6 0 | 1016 0621cd376549aa07
gen small 8 while_loop | cc9744dae523c62c 5bb0f939e9b7fc7f 839eb1c6f9dc5993 0 | 1049 b9b68c90a5385c25
gen small 9 spec_mix | 2e8b645f6c164da8 40c70ed69734a81a ff26d267580d82aa 0 | 648 ff2281160e968ffb
gen small 10 seq_loop | e6ac3ff09a6e29ec 21e41a909b5f8923 991b6fb649d17a5f 1 | 1772 f3c42224e93d1eb1
gen small 11 arr_cond | 81cece3f8cdb7c87 901fce43e693ca7e 28c20a1110694b23 0 | 4591 e137906afb70fa92
gen small 12 twod | c16e0a9cb5308d9f b25462ebe1275810 298a855619a07709 0 | 3220 4f226f3730305424
gen small 13 deep_nest | 8c89cdc05bafd1f7 a598ed7a6dcfd652 7c1b01e9fdffa1ef 3 | 3562 d5043f582c7d08d8
gen small 14 while_loop | 2886117bfd59bac7 3cf9b49dc5a14010 aef9a1e39018de40 0 | 1039 d49656eda68fc289
gen small 15 arr_cond | d4848111fb330534 7041b8c5c880d6dd 880090186e23add8 0 | 961 280e75a6d1c5e132
gen small 16 deep_nest | c58f56c95fa91a88 63ccce57a36ee6e2 68e8d430ee60863b 3 | 3283 0f7cfbe6adb3f584
gen small 17 twod | 8886c0c5fc3d5fed 4c2611d13102a041 2769d38df0a2bbd7 0 | 2486 125412812a754ef0
gen small 18 seq_loop | ecba419453860142 82849901eb0dba13 0f6ca9ffa0319c27 1 | 1487 0a200c04a4b02d52
gen small 19 spec_mix | 9304ab379599ba22 05c61cf3dc622f46 d2fc4bc744d13117 0 | 694 9522308639ca1c30
gen small 20 spec_mix | 7f17457c94ada7fd ebef68e2c4cf062a d2fc4bc744d13117 0 | 604 8067cd0fe06f8741
gen small 21 deep_nest | 24bd2ae5e27a1cfd be95335fdab46ce0 e752b1600ebd8de5 4 | 4171 10502f53844ad233
gen small 22 seq_loop | dc5854732c6663da 169d09979afb332a e6e636e31e886c69 0 | 1187 592dfd646cf1487c
gen small 23 while_loop | 6d365ad5ff33543d 4b1ef721b9a64f52 e80350cfd4db6edb 0 | 1698 e736c8fb3ed53f46
gen small 24 spec_mix | 6760bc4c2b38fb3d 25eda8a2dcde20a6 8f42c7f17eac1294 0 | 1064 2ff1f48578e34557
gen small 25 phi_if | d3143ad3b9734df0 3877d85c28b66417 34079ba1cebf87f4 0 | 1440 bd4082700e9ed214
gen small 26 seq_loop | 16c54137227e1e2d 72502c74d968257a 74c15f69f9e2be03 1 | 1943 b14745c2033e825c
gen small 27 seq_loop | e7b67a66ec45715b ea51957694f6b824 d790ed63d5c9c32f 2 | 2265 032be6edd145088f
gen small 28 spec_mix | 2172afc11dc28b78 246b688b7a0fa899 6a0c9eff424c7474 1 | 2582 f9ad11f82059f63b
gen small 29 stencil1d | 4777b762ba3e7248 3ee15c5e3da480d5 4cc751682b71735b 0 | 1679 086f376a8c889265
gen small 30 while_loop | 01434e64e2890484 4571dbd90137340c 926782dcbb40469f 0 | 1017 cae237b289b8b15d
gen small 31 seq_loop | 20fc3f5e795c2c2b 3e67cc69661dc947 80f554b55eae7d67 0 | 1232 a11327c5a7e31014
";

fn row(name: &str, k: &SsaKernel) -> String {
    let hash = |text: String| fnv1a(text.as_bytes());
    let snapshot = k.egraph.serialize();
    format!(
        "{name} | {:016x} {:016x} {:016x} {} | {} {:016x}\n",
        hash(format!("{:?}", k.nodes)),
        hash(format!("{:?}", k.initial_values)),
        hash(format!("{:?}", k.array_names)),
        k.num_loops,
        snapshot.len(),
        fnv1a(snapshot.as_bytes()),
    )
}

#[test]
fn ssa_of_the_suite_and_64_generated_kernels_is_pinned() {
    let mut table = String::new();
    let kernels = common::suite_kernels();
    assert_eq!(kernels.len(), 19);
    for (name, kernel) in &kernels {
        table.push_str(&row(name, kernel));
    }
    let small = GenConfig { max_stmts: 2, max_depth: 2 };
    for (shape, cfg) in [("default", GenConfig::default()), ("small", small)] {
        for seed in 0..32 {
            let gk = generate_kernel(seed, &cfg);
            let prog = parse_program(&gk.source).unwrap();
            for f in &prog.functions {
                for l in innermost_parallel_loops(f) {
                    let name = format!("gen {shape} {seed} {}", gk.flavor);
                    table.push_str(&row(&name, &build_kernel(&l.body)));
                }
            }
        }
    }
    assert_eq!(table, EXPECTED, "SSA construction moved; got:\n{table}");
}
