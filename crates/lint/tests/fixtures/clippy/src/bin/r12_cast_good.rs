//! R12 cast-discipline, good twin: the narrowing is explicit, so an
//! overflow surfaces instead of truncating.

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
    u32::try_from(total_bill).unwrap_or(u32::MAX)
}

fn pack_price(scaled_load: u64) -> u32 {
    u32::try_from(scaled_load).unwrap_or(u32::MAX)
}

fn hour_offset(deadline: u32, shift: i32) -> (i32, u32) {
    (
        i32::try_from(deadline).unwrap_or(i32::MAX),
        u32::try_from(shift).unwrap_or(0),
    )
}

fn main() {
    println!("{} {} {:?}", frame_word(7), pack_price(9), hour_offset(3, 1));
}
