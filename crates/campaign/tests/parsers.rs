//! Robustness of the hand-rolled parsers that face outside input: the
//! campaign spec parser (TOML subset + JSON) and the HTTP request
//! reader. Whatever the bytes, each returns `Ok` or `Err` — never panics.

use hdsmt_campaign::serve::http::{read_request, MAX_BODY};
use hdsmt_campaign::CampaignSpec;
use proptest::prelude::*;

/// The committed example specs: realistic starting points for splicing.
fn example_specs() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let mut specs: Vec<Vec<u8>> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| std::fs::read(p).unwrap())
        .collect();
    assert!(!specs.is_empty(), "no example specs under {dir}");
    specs.sort();
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spec_parse_never_panics_on_noise_or_spliced_examples(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        pick in any::<usize>(),
        at in any::<usize>(),
        cut in 0usize..16,
    ) {
        let _ = CampaignSpec::parse(&String::from_utf8_lossy(&noise));
        let specs = example_specs();
        let mut spliced = specs[pick % specs.len()].clone();
        let at = at % (spliced.len() + 1);
        let end = (at + cut).min(spliced.len());
        spliced.splice(at..end, noise);
        let _ = CampaignSpec::parse(&String::from_utf8_lossy(&spliced));
    }

    #[test]
    fn read_request_never_panics_and_caps_the_body(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        len in 0usize..80,
        near_cap in any::<bool>(),
    ) {
        let ok_within_cap = |bytes: &[u8]| match read_request(&mut &bytes[..]) {
            Ok(req) => req.body.len() <= MAX_BODY,
            Err(_) => true,
        };
        prop_assert!(ok_within_cap(&noise));
        // The same noise as the body of a well-formed head, with a
        // Content-Length that is small or straddles the cap.
        let len = if near_cap { MAX_BODY - 40 + len } else { len };
        let mut framed = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {len}\r\n\r\n")
            .into_bytes();
        framed.extend_from_slice(&noise);
        prop_assert!(ok_within_cap(&framed));
    }
}
