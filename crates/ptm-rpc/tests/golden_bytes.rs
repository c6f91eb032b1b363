//! Golden wire bytes: the exact payloads this protocol version puts on the
//! wire for a traced, deadlined point query and for one reply per response
//! tag. Any change to a header, tag or body layout fails here, so a wire
//! change can only happen on purpose, together with a version bump.

use ptm_core::encoding::LocationId;
use ptm_core::record::PeriodId;
use ptm_rpc::proto::{
    decode_request, decode_response, encode_request_with, encode_response, WireTrace,
};
use ptm_rpc::{ErrorCode, Request, Response};

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn traced_deadlined_point_query_bytes() {
    let request = Request::QueryPoint {
        location: LocationId::new(0x0102_0304_0506_0708),
        periods: vec![
            PeriodId::new(0),
            PeriodId::new(7),
            PeriodId::new(0xDEAD_BEEF),
        ],
    };
    let trace = WireTrace {
        trace_id: 0x1122_3344_5566_7788,
        parent_span: 0x99AA_BBCC_DDEE_FF00,
    };
    let want = unhex(concat!(
        "0305",             // version 3 | tag 5 (query point)
        "03",               // flags: trace context + deadline
        "8877665544332211", // trace_id
        "00ffeeddccbbaa99", // parent_span
        "dc050000",         // deadline_ms 1500
        "0807060504030201", // location
        "0300",             // period count
        "00000000",         // period 0
        "07000000",         // period 7
        "efbeadde",         // period 0xDEADBEEF
    ));
    let bytes = encode_request_with(&request, Some(trace), Some(1500));
    assert_eq!(bytes, want);

    let decoded = decode_request(&bytes).expect("golden request decodes");
    assert_eq!(decoded.request, request);
    assert_eq!(decoded.trace, Some(trace));
    assert_eq!(decoded.deadline_ms, Some(1500));
}

#[test]
fn one_reply_per_response_tag_bytes() {
    let cases = [
        (
            Response::Pong {
                version: 3,
                s: 3,
                records: 12_345,
                degraded: true,
            },
            "0380000303000000393000000000000001",
        ),
        (
            Response::UploadOk {
                accepted: 10,
                duplicates: 2,
            },
            "0381000a00000002000000",
        ),
        (Response::Estimate(123.456), "03820077be9f1a2fdd5e40"),
        (
            Response::Error {
                code: ErrorCode::DuplicateConflict,
                message: "loc 7 period 2".into(),
            },
            "038300030e006c6f63203720706572696f642032",
        ),
        (
            Response::Overloaded {
                retry_after_ms: 250,
            },
            "038400fa000000",
        ),
        (
            Response::Stats("{\"counters\":{}}".into()),
            "0385007b22636f756e74657273223a7b7d7d",
        ),
        (Response::DeadlineExceeded, "038600"),
        (Response::GoingAway { retry_after_ms: 80 }, "03870050000000"),
    ];
    let mut tags: Vec<u8> = Vec::new();
    for (response, hex) in cases {
        let bytes = encode_response(&response);
        assert_eq!(bytes, unhex(hex), "{response:?}");
        assert_eq!(decode_response(&bytes), Ok(response));
        tags.push(bytes[1]);
    }
    assert_eq!(tags, (128..=135).collect::<Vec<u8>>(), "one case per tag");
}
