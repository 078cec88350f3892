//! R12 cast-discipline, bad: narrowing `as` casts on money, time and
//! fixed-point values.
// expect: clippy::cast_possible_truncation clippy::cast_possible_wrap clippy::cast_sign_loss

// The header every mechanism crate root carries.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

fn frame_word(total_bill: u64) -> u32 {
    total_bill as u32
}

fn pack_price(scaled_load: u64) -> u32 {
    scaled_load as u32
}

fn hour_offset(deadline: u32, shift: i32) -> (i32, u32) {
    (deadline as i32, shift as u32)
}

fn main() {
    println!("{} {} {:?}", frame_word(7), pack_price(9), hour_offset(3, 1));
}
