//! Byte identity of the kernel text path: lexer, parser, printer and code
//! generator may change how they allocate, never what they produce.
//!
//! Three tables, recorded at `b210d69`, before the text path was rebuilt:
//!
//! * **Outputs** — for every input (the 14 suite sources, the 5 minimized
//!   fuzz repros under `tests/corpus`, 64 seeded `genkern` kernels covering
//!   all 8 flavors), the FNV-1a of `print_program` of the optimized program
//!   under each of the four variants (`CSE`, `CSE+SAT`, `CSE+BULK`,
//!   `ACCSAT`, default configuration).
//! * **Keys** — every kernel body's `fingerprint_block` and its
//!   `sat_stage_key`. Both hash the printer's canonical text, so a changed
//!   printer byte orphans every entry of every `--cache-dir`.
//! * **Errors** — the `ParseError` text (message and line) of the twelve
//!   hostile nesting shapes of `ir::parser`'s tests, and of ordinary syntax
//!   errors that render every token kind.
//!
//! A mismatch names the first line that moved.

use accsat::{optimize_program, sat_stage_key, SaturatorConfig, Variant};
use accsat_benchmarks::genkern::{generate_kernel, GenConfig};
use accsat_ir::{fingerprint_block, fnv1a, parse_expr, parse_program, print_program};

/// `<input> <CSE> <CSE+SAT> <CSE+BULK> <ACCSAT>`, then one indented
/// `<function> <fingerprint_block> <sat_stage_key>` line per kernel.
const OUTPUTS: &str = "\
suite BT 497e11fb2e318854 96e29f527160fa61 ea03bd7518f0ddb9 230c326178d9a262
  bt_zsolve 7820d52f347b8886 0d13a7c8d5b1d5e3
  bt_rhs 249cc8b6b8885e2b a94e1512e713ebc1
suite CG 2d9652570f295b40 8ef6ffe9242adf30 5b4948d6169f07ff 97d9e4408fc57a27
  cg_spmv 3c19e9d1cfe5f917 94a209e206082691
  cg_axpy f9c42914c271704f 46ecdef1f1605862
suite EP d397fa27f96bee72 e58cd46b2bbc6bee d397fa27f96bee72 e58cd46b2bbc6bee
  ep_gauss cce6923856ff9be2 309c6c720fb8b620
suite FT 1d97691c549c445a 1d97691c549c445a e92dd5b6a7b86b5a e92dd5b6a7b86b5a
  ft_butterfly e8aa63fe1d32734f ea1d2218d541cd1c
  ft_evolve 5bea6e1bd16d0e34 e0c82b2fd226f070
suite LU 8af7ec94dd3a85b6 b54207dbf86504e0 73cbccc99242e8ca 4f5ec3c8582f25ae
  lu_jacld d3995ccfec7eaceb f80ace540803ebfc
suite MG 6b9dbd3a0e5e3d9f 6b9dbd3a0e5e3d9f fc1664cc49ff4311 fc1664cc49ff4311
  mg_resid b7b1b36cfc16b910 74c8f02806d87246
suite SP e0dccf6a83f9bfc9 b5d26284c6bf288b a024e502b231299a 61fc3bc19fab322d
  sp_lhs 6d43368fb15a9849 57c38feed7f48de3
suite ostencil 73ce86d3587711cc 73ce86d3587711cc e3adf10a3ee88008 e3adf10a3ee88008
  stencil_jacobi cd356951629a895e 242108f2adcf34fb
suite olbm e62fda98e4ca07cc 2642e7414525cd53 57be73d752561f44 b7179597e35c824b
  lbm_stream c31d3abbf807cfe7 c521425d59c18fea
suite omriq fb28b97567ff9db9 9ba9fdb9775bc5ff 7882c363ce9d6401 0e4a4f66c286ad8b
  mriq_computeq 423466b63e635d31 5ca97ba7ccb5aeaf
suite ep 4d0e621fda19d979 22ebb259b5fe99ef 4d0e621fda19d979 22ebb259b5fe99ef
  ep_gauss cce6923856ff9be2 309c6c720fb8b620
suite cg 612a63d31580c19e c45af4675d6d7566 9c5f9560989b8b71 9540af4395a9d44d
  cg_spmv 3c19e9d1cfe5f917 94a209e206082691
  cg_axpy f9c42914c271704f 46ecdef1f1605862
suite csp 43bdbd07c79e13ac f96f1cf2cbf0807e 52d530a3fde95f17 db40cc68f645b6e4
  sp_lhs 6d43368fb15a9849 57c38feed7f48de3
suite bt 437b1dfbb0e46924 272c7ff21d344911 b0664f6ddb7f3a0b a2c7daf1e481ca74
  bt_zsolve 7820d52f347b8886 0d13a7c8d5b1d5e3
  bt_rhs 249cc8b6b8885e2b a94e1512e713ebc1
corpus case-00004-differential 8ab2f2753da40341 8ab2f2753da40341 8ab2f2753da40341 8ab2f2753da40341
  fz 6dd0d5d68cb189e8 31d84ef581d7c526
corpus case-00016-panic 6e978bb7825a1294 6e978bb7825a1294 6e978bb7825a1294 6e978bb7825a1294
  fz 7ddcd2287e534607 1ad321d8d1525677
corpus case-00026-differential 0743ee4afa9e15e1 0743ee4afa9e15e1 0743ee4afa9e15e1 0743ee4afa9e15e1
  fz 80b49cb5e86c1809 ba29cee0dd648332
corpus case-00120-differential 20ff6106c94b0c01 20ff6106c94b0c01 edc8ead6ea9f2fbf edc8ead6ea9f2fbf
  fz 0095c4666cdd7e55 d353d6db30754f6f
corpus case-00188-differential 92e2a3c4bcfd674e 92e2a3c4bcfd674e 92e2a3c4bcfd674e 92e2a3c4bcfd674e
  fz dd2bab9c26f7d95f ab710f0656ac4aca
gen 0 deep_nest 01d93b035c584efb f9a4f97290c52760 257036142d412e0c 8572dd415221a111
  fz 6134102cbbfc4edf 0d9c4a5dbe0c5675
gen 1 phi_if 9f4ed7ba9e27b030 1655f4a2d5ec6fd1 5687dd0995c45229 75e75981fe0d4ac6
  fz d69962eda6084f75 5b5a5fb34bbbec18
gen 2 while_loop 621b127c24495daa 621b127c24495daa 720c44a91304d898 720c44a91304d898
  fz 515f5eb43c115179 9bbdb67bf4a88033
gen 3 arr_cond 6996dabc8041bd1a 2f572bcf4fba893c 27898fc658f3312a 2ebe992485700ce9
  fz de2fae0ea1c0a28f 67f918e7b0935bf1
gen 4 seq_loop cd140601bc291909 cd140601bc291909 658660c1ef3bd00e 658660c1ef3bd00e
  fz b8b56f418d250437 00f3b9f6de8db376
gen 5 seq_loop b4f1c5db0ec3f01b b4f1c5db0ec3f01b aa517af2c5d0b7f9 aa517af2c5d0b7f9
  fz ac8ad248afcab75d 22327142ae83ffc5
gen 6 stencil1d 7c7471be94709c05 7c7471be94709c05 572b0c32210d6c9b 572b0c32210d6c9b
  fz a2d236fc3b253e5b 3fec2482905680ed
gen 7 deep_nest 9e88b147908aa89c 9e88b147908aa89c bef7e468eab29a06 bef7e468eab29a06
  fz ac949d5075e7974f 5d29a502f82cbd77
gen 8 while_loop 9f8e6bfe524e25c0 9f8e6bfe524e25c0 b678544b9487f4fb b678544b9487f4fb
  fz 388485caf3872ac8 a65c50fb970063af
gen 9 spec_mix efcca3ea92db39d8 efcca3ea92db39d8 d55238c17d150e80 d55238c17d150e80
  fz 4cd0313d9172030e f4c71bbc98ba6642
gen 10 seq_loop fa866b716625f6f8 fa866b716625f6f8 0a7911776842cecc 0a7911776842cecc
  fz 0d4dc6d69dae2021 242238bcfd18bbd0
gen 11 arr_cond 30fe3f32481ebc91 060b6c6dc6cf4333 a06846ba09d18986 928f510422f7f8a4
  fz e370077e2af35aaf f8799ff73940dcb8
gen 12 twod deae1b3458cd59fa deae1b3458cd59fa 9fec1e876cac1ac1 9fec1e876cac1ac1
  fz 3eec27a26fc9404f d609ff6c08221f4c
gen 13 deep_nest 8ac90d3619247d12 dc8928485340f6b9 58c9a5ab9b9a7dfa 663881f936029b69
  fz 2e410cc3305f8a6a 3d3eda2ad7daf2b1
gen 14 while_loop f48584e114853c01 38043a756d05d769 981218fa2b20be5d 0de8491a89ec5688
  fz 0a2f4e2e1f838f3a 4144163762c3c0be
gen 15 arr_cond 9391bcdea89f5a9f 0cee8fc3e8fe5a21 35c488dd654c0181 09d9b0bb98c75d25
  fz 29a5d6853ee11fa0 e0ded1dc195d0b21
gen 16 deep_nest 860289325b013b2e 860289325b013b2e efddb84f85dfcace efddb84f85dfcace
  fz da4bcd1a0995fd60 692f5e8dd03ebc7f
gen 17 twod 400b1634e6710122 c4d48e29faa0971e cec66703b2985aab e115c32820c7df5b
  fz f1861a29148d3af4 819317d82bba9873
gen 18 seq_loop b9e6dea3540186ca b9e6dea3540186ca 149e783a808cfd37 149e783a808cfd37
  fz 83492897df3bac5a cd200771a353f7e1
gen 19 spec_mix 8693a6bb77355aa6 8693a6bb77355aa6 28a8d2e81396e961 28a8d2e81396e961
  fz b9ee9a1af735054f 8edb8854325ba65b
gen 20 spec_mix f3098361700e8c3a 7d36c2f1947737ce 78ffa749ced189d5 104e5e828295d1df
  fz 55345d2928099800 fa8af2c324917dc6
gen 21 deep_nest c72c5f04d6a9d019 521931a50c543ae8 625c9dbc4204efb4 d2e07a3dcec01b55
  fz 6581e495fff1a455 aac81ed2e3f04614
gen 22 seq_loop b9f97a0d68904e57 c0325f9799102b0b e64662f530d35436 f75ee7f1a64cf6d2
  fz f20d5921566e20e8 328d05d6589c9be3
gen 23 while_loop 1cac015090194753 1cac015090194753 3693bf72d1f539cf 3693bf72d1f539cf
  fz 74f83b0ca60819e7 ad7bb2cb16f47e01
gen 24 spec_mix ea8d45739262ccbe ea8d45739262ccbe f5a4b58cbaf4f79f f5a4b58cbaf4f79f
  fz 951114cae8df59f1 a8ab5c5c14d83687
gen 25 phi_if a8314b17215a2050 1d31707c710b4be3 21d60dcd9c09e305 5ba5bd65379470d2
  fz b0448df1e77c9198 ec9a9d6e04600102
gen 26 seq_loop 7683ca3bbc1ac411 718341f4bc42df78 69c0ee7139597974 6707f09adad7827f
  fz 6e0aec02d2ebd786 c941b7ecc12f7422
gen 27 seq_loop 8c2f0067cb420258 9fc70748e382d7d0 bfffa4206d0e57b2 126f14c8cc364b7a
  fz c816417cdd124de5 ffe06bc675f5c29c
gen 28 spec_mix 81efb41c3583bec8 8fafe85f82a12adb a89dbf48b0cfb356 35c4384e47b8aadb
  fz 106d5b3aae639091 674bab6154f92d7c
gen 29 stencil1d c4090485d0476bbb c4090485d0476bbb b26fd510c44ea892 b26fd510c44ea892
  fz 662f3a3a9307435b 1388c709917fa117
gen 30 while_loop bd0fde8016c86d95 bd0fde8016c86d95 d96cb34b78890bc8 d96cb34b78890bc8
  fz 04836d519f49718c 9547f2955d40b614
gen 31 seq_loop 827e59a0c10e7e54 827e59a0c10e7e54 4f6375a8ee3a14fc 4f6375a8ee3a14fc
  fz d473ef18a0a06fcc a47c104f8df02499
gen 32 phi_if 9200479867cb1404 9200479867cb1404 3e1e0644a0f2764f 3e1e0644a0f2764f
  fz 749b623c16ef0b1c 4d14534d9bb4939b
gen 33 stencil1d 1a53e6058e37c144 1a53e6058e37c144 7503cffe5ff0c45b 7503cffe5ff0c45b
  fz fea713b7c1ae6083 55855b7ef7ac85af
gen 34 arr_cond 15c28f8d9a827a4e 15c28f8d9a827a4e f66bb45946ed3c6f f66bb45946ed3c6f
  fz 173396b6813f9d56 38a3fec0a607a939
gen 35 twod eaea200a1f9953c2 71004bd1b621f0ad 0fa49c6e55d46562 e956f35204837af9
  fz e77319c4ccdb6681 4ae3b175b072c6bb
gen 36 twod 4baf5e43050b1c45 0fdc5fadc2c9a05e 20f5ba2558e1fbd3 9e2328f71d94a5ea
  fz 53b4587ee7c61647 68611419102a4e87
gen 37 deep_nest ad81a30af17fb905 80958c11bd09a137 92682adf8b0a7e77 e38372967f69b271
  fz fba640a39d82d32f c6601ef0574924a9
gen 38 stencil1d a46f0264405a2eff 70f7212154a8a60a 3d638b52ce341495 77f85604a31c45c6
  fz 46fda039e77fe239 b194b7e79bb079e5
gen 39 spec_mix 35dee7ce2d401c6e 35dee7ce2d401c6e 35dee7ce2d401c6e 35dee7ce2d401c6e
  fz be77a0d4cfce8170 21b58b61766ca837
gen 40 seq_loop 6427db7e1501dc46 b57f39d5947404d1 77ee40c4635bce2d 0399ef733725fcc4
  fz 477c841bee1e3037 6aed489d4e145a87
gen 41 phi_if 5259aa75dbabcaae 5259aa75dbabcaae 1379cc885e477c6d 1379cc885e477c6d
  fz b83145c99ea76aec 5ec5f4a81328bf2e
gen 42 arr_cond 983d176b4228fe16 32453c9c4fd91b0d 7188ce1315175f85 fa11773a3bd83856
  fz 381fd10ef7545e24 13e233590f309c87
gen 43 stencil1d 51c41fefb790cc2c 51c41fefb790cc2c d8be301f64821ff1 d8be301f64821ff1
  fz 7ef938bba71ed38d fcdb9ebe929902fd
gen 44 twod 7b62a64ae317cd28 f6333f0fe2609807 93e227e820cf2a3e ad7b423e68ddd850
  fz cfa00006c8728592 74c703b1f6c5c3aa
gen 45 while_loop 330d888a2a43a7f5 330d888a2a43a7f5 05f6909fbed1416d 05f6909fbed1416d
  fz deac2c1325765d88 7858d163284bbb1d
gen 46 deep_nest acb24733275ba46a 3d6fe283a5c21c3e b20b64d951f8403e e67af9eb15149510
  fz ef99932de5ea4ff1 fc56f361bec71847
gen 47 arr_cond 09351f4e69ddf55e 0f118a47167c012a 46d4113b37ca0cf3 fd2d018901175779
  fz c578e201056983e6 bb7b16e37b72c0c3
gen 48 twod 7d8810ea77bb5a56 d5888826c73694bf 167c639f2d157837 e7c6d733d9587912
  fz 0349e30f76dc86c9 d822a18c0330c689
gen 49 stencil1d 99a3f10b4b222fd5 99a3f10b4b222fd5 f89b8815e49d8cea f89b8815e49d8cea
  fz 2776b093fe4b9d52 e454fa393e045d32
gen 50 twod 9065c018e295e91c 648be1cdf9d72974 2b39ce2d19789b0b 8319638261b1bda7
  fz 931b65bfa3c15fc9 03615b0f6b9d5c20
gen 51 stencil1d 78051ce57d965c39 0ce5b48cb4994f55 8f6f758ec4185b78 679908245c6669b4
  fz 41ec003c49944672 679b4db57574eeee
gen 52 seq_loop 74257608dbbf735e 74257608dbbf735e 5c108c3eb2eb7492 5c108c3eb2eb7492
  fz fae4310e0956d139 27251858ebc9d36e
gen 53 while_loop a5b4fab5b4869461 0d6570799f7e6f90 6ea36a26fe2fcf7f cc09c89862208964
  fz 1c544532e61683cc 45dcd6ac71411cc2
gen 54 arr_cond 495dfc8364f98db0 373df7c78ddba88c 0f3aad9e37e3ee59 0483312d97d6190f
  fz 2ed387f8c677f7e9 2689bfa5fed2b7f7
gen 55 spec_mix e1f449645c86889b e7828e207237f003 38e267ff3c7a25fd 5e83c43a0d2fcf8d
  fz 75ce3a0f90097bef 00b994eadfd37881
gen 56 deep_nest b0e953413d4887e6 68236dffa144b942 78eeb81bb85af6ba d58145cad77ca22a
  fz 90c3f8f471e7ccd5 5d8385ed374a5538
gen 57 phi_if ed9dd626b8fd540e ac58324104175265 b0bea6f280c6b85d 61591cd716e6effc
  fz 998e68a0e4cab3a8 4294ba8efd7a3dac
gen 58 seq_loop 230b130dcbe7efa6 3d20e276cc02f616 6b9c2ed20edd1374 72442fe56034608e
  fz d7b4144f4824b986 917bbf7b77ed0c01
gen 59 spec_mix e930a2ad70119d93 e930a2ad70119d93 e1255f409658fbc1 e1255f409658fbc1
  fz 24ec67342abf5696 84439f55a35be416
gen 60 deep_nest b278e62ee223705e b278e62ee223705e 6fdc699743a3c2c1 6fdc699743a3c2c1
  fz e49d7f4695ea36bb e517942361030c14
gen 61 phi_if e1f127c7059c0869 6490357629fe2ce7 1df839ea2e8c7b17 dc46bb82f20923ab
  fz 3dbb7e3a9e8086d0 5088a4b30d677ac2
gen 62 seq_loop e6c2f53f22d0c511 e6c2f53f22d0c511 945cb36d84b84e17 945cb36d84b84e17
  fz f24eae8e4e87e4fb 0e1085ff0b312734
gen 63 arr_cond 279746b99615ecd2 b7ba1c9c8c6e097e b561d78150aecde1 177148f98bc8e98d
  fz 69349cc13132c057 d0b5c33a7ca7c782
";

const ERRORS: &str = r#"parens: parse error at line 2: nesting deeper than 128
prefix: parse error at line 2: nesting deeper than 128
plus: parse error at line 2: nesting deeper than 128
casts: parse error at line 2: nesting deeper than 128
chain: parse error at line 2: nesting deeper than 128
then: parse error at line 2: nesting deeper than 128
else: parse error at line 2: nesting deeper than 128
index: parse error at line 2: nesting deeper than 128
calls: parse error at line 2: nesting deeper than 128
blocks: parse error at line 2: nesting deeper than 128
ifs: parse error at line 2: nesting deeper than 128
pragmas: parse error at line 130: nesting deeper than 128
"void f() {\n  int x = ;\n}": parse error at line 2: unexpected token in expression: `;`
"void f() { x = 1 }": parse error at line 1: expected `;`, found `}`
"void f() { x = y": parse error at line 1: expected `;`, found end of input
"void f() { x = 1;": parse error at line 1: unterminated block
"void f() { x = 1.5 2; }": parse error at line 1: expected `;`, found integer `2`
"void f() { x = a ? b; }": parse error at line 1: expected `:`, found `;`
"void f() { x = @; }": parse error at line 1: unexpected token in expression: `?`
"void f() { 3 = x; }": parse error at line 1: invalid assignment target
"void f() { x = (1)[2]; }": parse error at line 1: cannot index a non-array expression
"void f() {\n  for (int i = 0; i < 4; j++) { }\n}": parse error at line 2: for-loop step must update induction variable `i`, found `j`
"void f() { for (int i = 0; i < 4; i *= 2) { } }": parse error at line 1: unsupported for-loop step: `*=`
"void f() { for (int i = 0; i < 4; i = 2 * i) { } }": parse error at line 1: unsupported for-loop step
"void f(double a[x]) { }": parse error at line 1: expected array dimension, found identifier `x`
"void f(double a[2.5]) { }": parse error at line 1: expected array dimension, found float `2.5`
"int 3() { }": parse error at line 1: expected identifier, found integer `3`
"void\n#pragma acc loop\nf() { }": parse error at line 3: expected identifier, found #pragma acc loop
"void f() { }\ntrailing": parse error at line 2: expected type
"void f() {\n#pragma acc bogus\nfor (int i = 0; i < 4; i++) { }\n}": parse error at line 3: unknown acc directive: Some("bogus")
"void f() {\n#pragma acc loop gang(x)\nfor (int i = 0; i < 4; i++) { }\n}": parse error at line 3: expected integer clause argument, got `x`
"void f() {\n#pragma omp parallel for reduction(^:s)\nfor (int i = 0; i < 4; i++) { }\n}": parse error at line 3: unknown reduction op: ^
"void f() { x = a[0]\n\n + ; }": parse error at line 3: unexpected token in expression: `;`
expr "a b": parse error at line 1: trailing input: identifier `b`
expr "a +": parse error at line 1: unexpected token in expression: end of input
expr "(a": parse error at line 1: expected `)`, found end of input
expr "f(a,": parse error at line 1: unexpected token in expression: end of input
expr "a[1": parse error at line 1: expected `]`, found end of input
expr "x = 1": parse error at line 1: trailing input: `=`
"#;

fn inputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for b in accsat_benchmarks::all_benchmarks() {
        out.push((format!("suite {}", b.name), b.acc_source));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut repros: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    repros.sort();
    for path in repros.iter().filter(|p| p.extension().is_some_and(|x| x == "sat")) {
        let name = path.file_stem().unwrap().to_string_lossy();
        out.push((format!("corpus {name}"), std::fs::read_to_string(path).unwrap()));
    }
    let mut flavors = std::collections::BTreeSet::new();
    for seed in 0..64 {
        let gk = generate_kernel(seed, &GenConfig::default());
        flavors.insert(gk.flavor);
        out.push((format!("gen {seed} {}", gk.flavor), gk.source));
    }
    assert_eq!(flavors.len(), 8, "the seeds must cover every genkern flavor: {flavors:?}");
    out
}

/// First line where `got` and `want` differ, for the assertion message.
fn first_moved(got: &str, want: &str) -> String {
    let (mut g, mut w) = (got.lines(), want.lines());
    loop {
        match (g.next(), w.next()) {
            (None, None) => return "none".into(),
            (a, b) if a != b => return format!("got {a:?}, pinned {b:?}"),
            _ => {}
        }
    }
}

#[test]
fn printed_outputs_and_cache_keys_are_pinned() {
    let cfg = SaturatorConfig::default();
    let mut table = String::new();
    for (name, src) in inputs() {
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        table.push_str(&name);
        for v in Variant::all() {
            let (opt, _) = optimize_program(&prog, v).unwrap_or_else(|e| panic!("{name}: {e}"));
            table.push_str(&format!(" {:016x}", fnv1a(print_program(&opt).as_bytes())));
        }
        table.push('\n');
        for f in &prog.functions {
            for l in accsat_ir::innermost_parallel_loops(f) {
                let key = sat_stage_key(&l.body, Variant::AccSat, &cfg);
                table.push_str(&format!(
                    "  {} {:016x} {key:016x}\n",
                    f.name,
                    fingerprint_block(&l.body)
                ));
            }
        }
    }
    print!("{table}");
    assert!(table == OUTPUTS, "printed output or key moved: {}", first_moved(&table, OUTPUTS));
}

#[test]
fn parse_errors_are_pinned() {
    // the twelve nesting shapes of `ir::parser`'s tests, far over the limit
    type Shape = (&'static str, fn(usize) -> String);
    let shapes: [Shape; 12] = [
        ("parens", |k| format!("x = {}a[0]{};", "(".repeat(k), ")".repeat(k))),
        ("prefix", |k| format!("x = {}a[0];", "- ".repeat(k))),
        ("plus", |k| format!("x = {}a[0];", "+ ".repeat(k))),
        ("casts", |k| format!("x = {}a[0];", "(double)".repeat(k))),
        ("chain", |k| format!("x = a[0]{};", " + a[1]".repeat(k))),
        ("then", |k| format!("x = {}1{};", "x ? ".repeat(k), " : 2".repeat(k))),
        ("else", |k| format!("x = {}3;", "x ? 1 : ".repeat(k))),
        ("index", |k| format!("x = {}0{};", "a[".repeat(k), "]".repeat(k))),
        ("calls", |k| format!("x = {}x{};", "f(".repeat(k), ")".repeat(k))),
        ("blocks", |k| format!("{}x = 1;{}", "{ ".repeat(k), " }".repeat(k))),
        ("ifs", |k| format!("{}x = 1;", "if (x) ".repeat(k))),
        ("pragmas", |k| format!("{}x = 1;", "#pragma acc loop\n".repeat(k))),
    ];
    let mut table = String::new();
    for (shape, body) in shapes {
        let src = format!("void f(double a[8]) {{\n  {}\n}}", body(5_000));
        table.push_str(&format!("{shape}: {}\n", parse_program(&src).unwrap_err()));
    }
    // ordinary mistakes, between them naming every kind of token
    for src in [
        "void f() {\n  int x = ;\n}",
        "void f() { x = 1 }",
        "void f() { x = y",
        "void f() { x = 1;",
        "void f() { x = 1.5 2; }",
        "void f() { x = a ? b; }",
        "void f() { x = @; }",
        "void f() { 3 = x; }",
        "void f() { x = (1)[2]; }",
        "void f() {\n  for (int i = 0; i < 4; j++) { }\n}",
        "void f() { for (int i = 0; i < 4; i *= 2) { } }",
        "void f() { for (int i = 0; i < 4; i = 2 * i) { } }",
        "void f(double a[x]) { }",
        "void f(double a[2.5]) { }",
        "int 3() { }",
        "void\n#pragma acc loop\nf() { }",
        "void f() { }\ntrailing",
        "void f() {\n#pragma acc bogus\nfor (int i = 0; i < 4; i++) { }\n}",
        "void f() {\n#pragma acc loop gang(x)\nfor (int i = 0; i < 4; i++) { }\n}",
        "void f() {\n#pragma omp parallel for reduction(^:s)\nfor (int i = 0; i < 4; i++) { }\n}",
        "void f() { x = a[0]\n\n + ; }",
    ] {
        table.push_str(&format!("{src:?}: {}\n", parse_program(src).unwrap_err()));
    }
    for src in ["a b", "a +", "(a", "f(a,", "a[1", "x = 1"] {
        table.push_str(&format!("expr {src:?}: {}\n", parse_expr(src).unwrap_err()));
    }
    print!("{table}");
    assert!(table == ERRORS, "a parse error moved: {}", first_moved(&table, ERRORS));
}
