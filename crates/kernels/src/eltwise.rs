//! Element-wise sum (ResNet shortcut join).

use crate::error::KernelError;
use crate::vecops;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{active_isa, Tensor};

/// Element-wise sum of any number of equally shaped tensors into a
/// caller-provided output tensor, computed in a single parallel sweep (each
/// worker writes the first input for its chunk and accumulates the rest, in
/// input order — no intermediate copy). Every element of `out` is
/// overwritten.
///
/// # Errors
/// Returns an error when no inputs are given or shapes differ.
pub fn eltwise_sum_forward_into(inputs: &[&Tensor], out: &mut Tensor) -> Result<()> {
    let first = inputs
        .first()
        .ok_or_else(|| KernelError::InvalidArgument("element-wise sum needs inputs".to_string()))?;
    for t in inputs {
        first.shape().expect_same(t.shape())?;
    }
    first.shape().expect_same(out.shape())?;
    let base = first.as_slice();
    // Resolved on the caller's thread (workers don't inherit `with_isa`);
    // element-wise adds are bit-identical across ISAs, so worker chunk
    // boundaries are free to move with the thread count.
    let isa = active_isa();
    parallel_rows_mut(out.as_mut_slice(), 1, min_items_per_thread(1), |offset, chunk| {
        let len = chunk.len();
        chunk.copy_from_slice(&base[offset..offset + len]);
        for t in &inputs[1..] {
            vecops::add_assign(isa, chunk, &t.as_slice()[offset..offset + len]);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::{Shape, Tensor};

    #[test]
    fn sums_inputs() {
        let a = Tensor::filled(Shape::vector(4), 1.0);
        let b = Tensor::filled(Shape::vector(4), 2.0);
        let c = Tensor::filled(Shape::vector(4), 3.0);
        let mut y = Tensor::zeros(Shape::vector(4));
        eltwise_sum_forward_into(&[&a, &b, &c], &mut y).unwrap();
        assert_eq!(y.as_slice(), &[6.0; 4]);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        let mut out = Tensor::zeros(Shape::vector(4));
        assert!(eltwise_sum_forward_into(&[], &mut out).is_err());
        let a = Tensor::zeros(Shape::vector(4));
        let b = Tensor::zeros(Shape::vector(5));
        assert!(eltwise_sum_forward_into(&[&a, &b], &mut out).is_err());
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        let mut out = Tensor::from_slice(&[9.0, 9.0, 9.0]);
        eltwise_sum_forward_into(&[&a, &b], &mut out).unwrap();
        assert_eq!(out.as_slice(), &[1.5, -1.5, 3.5]);
        let mut bad = Tensor::zeros(Shape::vector(4));
        assert!(eltwise_sum_forward_into(&[&a, &b], &mut bad).is_err());
        assert!(eltwise_sum_forward_into(&[], &mut out).is_err());
    }
}
