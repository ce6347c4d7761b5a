//! The forward dispatch both tape walkers share.
//!
//! A compiled [`LinearProgram`](bnff_graph::linear::LinearProgram) names
//! each instruction's kernel recipe and registers; [`exec_instr`] runs one
//! such instruction against a register file. The frozen serving executor
//! and the training executor differ only in where an instruction's
//! parameters live (folded `FrozenParams` vs a trainable `ParamSet`), so
//! each maps its store onto the borrowed [`TapeParams`] view and calls this
//! one dispatch for every recipe except [`Kernel::Train`] — the
//! training-only operators (BN and its sub-layers, the fused BNFF kernels,
//! the loss), which need batch statistics and backward state only the
//! training executor keeps.

use crate::affine::{
    channel_affine_in_place, channel_affine_into, channel_affine_relu_in_place,
    channel_affine_relu_into,
};
use crate::concat::concat_forward_into;
use crate::conv::{conv2d_forward_into, conv2d_forward_relu_into};
use crate::eltwise::eltwise_sum_forward_into;
use crate::error::KernelError;
use crate::fc::fc_forward_into;
use crate::pool::{avg_pool_forward_into, global_avg_pool_forward_into, max_pool_forward_into};
use crate::relu::{relu_forward_inplace, relu_forward_into};
use crate::Result;
use bnff_graph::linear::{Instr, Kernel};
use bnff_graph::op::PoolKind;
use bnff_tensor::Tensor;

/// The parameters one instruction reads, borrowed from whichever store the
/// calling executor keeps.
#[derive(Debug, Clone, Copy)]
pub enum TapeParams<'a> {
    /// No parameters (ReLU, pooling, concat, element-wise sum).
    None,
    /// Convolution filters `(Cout, Cin, Kh, Kw)` and optional bias.
    Conv {
        /// Filter tensor.
        weights: &'a Tensor,
        /// Per-output-channel bias.
        bias: Option<&'a [f32]>,
    },
    /// Per-channel affine coefficients.
    Affine {
        /// Per-channel scale.
        scale: &'a [f32],
        /// Per-channel shift.
        shift: &'a [f32],
    },
    /// Fully-connected weights `(out, in)` and bias.
    Fc {
        /// Weight matrix.
        weights: &'a Tensor,
        /// Bias of length `out`.
        bias: &'a [f32],
    },
}

fn empty_register(instr: &Instr, reg: usize) -> KernelError {
    KernelError::InvalidArgument(format!("register {reg} read by '{}' is empty", instr.name))
}

/// Borrows the value in an instruction's `idx`-th input register.
///
/// # Errors
/// Returns [`KernelError::InvalidArgument`] when the register is empty.
pub fn operand<'a>(regs: &'a [Option<Tensor>], instr: &Instr, idx: usize) -> Result<&'a Tensor> {
    let reg = instr.inputs[idx];
    regs[reg].as_ref().ok_or_else(|| empty_register(instr, reg))
}

/// Borrows the values in all of an instruction's input registers.
///
/// # Errors
/// Returns [`KernelError::InvalidArgument`] when a register is empty.
pub fn operands<'a>(regs: &'a [Option<Tensor>], instr: &Instr) -> Result<Vec<&'a Tensor>> {
    (0..instr.inputs.len()).map(|i| operand(regs, instr, i)).collect()
}

/// Executes one instruction against the register file, writing its output
/// register. An instruction whose output register is its first input's
/// runs in place: the planner proved the input dead, and only the
/// pointwise kernels (affine, ReLU) are lowered that way.
///
/// # Errors
/// Returns [`KernelError::InvalidArgument`] for a [`Kernel::Train`] recipe,
/// for parameters that do not match the recipe, and for an empty input
/// register; otherwise whatever the kernel returns.
pub fn exec_instr(
    regs: &mut [Option<Tensor>],
    instr: &Instr,
    params: TapeParams<'_>,
) -> Result<()> {
    if instr.inputs.first() == Some(&instr.out) {
        let mut buf = regs[instr.out].take().ok_or_else(|| empty_register(instr, instr.out))?;
        match (&instr.kernel, params) {
            (Kernel::Affine { fused_relu }, TapeParams::Affine { scale, shift }) => {
                if *fused_relu {
                    channel_affine_relu_in_place(&mut buf, scale, shift)?;
                } else {
                    channel_affine_in_place(&mut buf, scale, shift)?;
                }
            }
            (Kernel::Relu, _) => relu_forward_inplace(&mut buf),
            _ => {
                return Err(KernelError::InvalidArgument(format!(
                    "instruction '{}' runs in place but is not a pointwise kernel with its \
                     parameters bound",
                    instr.name
                )))
            }
        }
        regs[instr.out] = Some(buf);
        return Ok(());
    }
    let mut out = instr.take_output(regs);
    match (&instr.kernel, params) {
        (Kernel::Conv { attrs, fused_relu }, TapeParams::Conv { weights, bias }) => {
            let x = operand(regs, instr, 0)?;
            if *fused_relu {
                conv2d_forward_relu_into(x, weights, bias, attrs, &mut out)?;
            } else {
                conv2d_forward_into(x, weights, bias, attrs, &mut out)?;
            }
        }
        (Kernel::Affine { fused_relu }, TapeParams::Affine { scale, shift }) => {
            let x = operand(regs, instr, 0)?;
            if *fused_relu {
                channel_affine_relu_into(x, scale, shift, &mut out)?;
            } else {
                channel_affine_into(x, scale, shift, &mut out)?;
            }
        }
        (Kernel::Relu, _) => relu_forward_into(operand(regs, instr, 0)?, &mut out)?,
        (Kernel::Pool { kind, attrs }, _) => {
            let x = operand(regs, instr, 0)?;
            match kind {
                PoolKind::Max => max_pool_forward_into(x, attrs, &mut out)?,
                PoolKind::Average => avg_pool_forward_into(x, attrs, &mut out)?,
            }
        }
        (Kernel::GlobalAvgPool, _) => {
            global_avg_pool_forward_into(operand(regs, instr, 0)?, &mut out)?;
        }
        (Kernel::Concat, _) => concat_forward_into(&operands(regs, instr)?, &mut out)?,
        (Kernel::EltwiseSum, _) => eltwise_sum_forward_into(&operands(regs, instr)?, &mut out)?,
        (Kernel::FullyConnected, TapeParams::Fc { weights, bias }) => {
            fc_forward_into(operand(regs, instr, 0)?, weights, bias, &mut out)?;
        }
        (Kernel::Train(op), _) => {
            return Err(KernelError::InvalidArgument(format!(
                "'{}' is the training-only operator {op}; only the training executor runs it",
                instr.name
            )))
        }
        _ => {
            return Err(KernelError::InvalidArgument(format!(
                "instruction '{}' has no parameters bound for its kernel",
                instr.name
            )))
        }
    }
    regs[instr.out] = Some(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::linear::Reg;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_graph::{NodeId, OpKind};
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

    fn shape() -> Shape {
        Shape::nchw(2, 3, 4, 4)
    }

    /// A one-input instruction reading `input` and writing `out`.
    fn instr(kernel: Kernel, input: Reg, out: Reg, out_shape: Shape) -> Instr {
        Instr {
            node: NodeId::new(1),
            op_node: NodeId::new(1),
            name: "op".to_string(),
            kernel,
            inputs: vec![input],
            input_nodes: vec![NodeId::new(0)],
            out,
            out_volume: out_shape.volume(),
            out_shape,
            flops: 0,
        }
    }

    fn registers() -> Vec<Option<Tensor>> {
        let x = Initializer::seeded(1).uniform(shape(), -1.0, 1.0);
        // The output register holds a dirty recycled buffer.
        vec![Some(x), Some(Tensor::filled(shape(), f32::NAN))]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn mismatched_params_are_rejected() {
        let conv = Kernel::Conv { attrs: Conv2dAttrs::pointwise(3), fused_relu: false };
        let (scale, shift) = (vec![1.0; 3], vec![0.0; 3]);
        let weights = Tensor::ones(Shape::matrix(5, 48));
        let cases = [
            (conv, TapeParams::None, 1),
            (
                Kernel::Affine { fused_relu: false },
                TapeParams::Fc { weights: &weights, bias: &[] },
                1,
            ),
            (Kernel::FullyConnected, TapeParams::Affine { scale: &scale, shift: &shift }, 1),
            (Kernel::Affine { fused_relu: true }, TapeParams::None, 0),
        ];
        for (kernel, params, out) in cases {
            let label = kernel.kind_name();
            let mut regs = registers();
            let err = exec_instr(&mut regs, &instr(kernel, 0, out, shape()), params);
            assert!(matches!(err, Err(KernelError::InvalidArgument(_))), "{label}: {err:?}");
        }
    }

    #[test]
    fn training_recipes_are_rejected() {
        let mut regs = registers();
        let loss = instr(Kernel::Train(OpKind::SoftmaxLoss), 0, 1, Shape::vector(1));
        let err = exec_instr(&mut regs, &loss, TapeParams::None);
        assert!(matches!(err, Err(KernelError::InvalidArgument(_))), "{err:?}");
    }

    #[test]
    fn empty_operand_is_an_error() {
        let mut regs = registers();
        regs[0] = None;
        let err = exec_instr(&mut regs, &instr(Kernel::Relu, 0, 1, shape()), TapeParams::None);
        assert!(matches!(err, Err(KernelError::InvalidArgument(_))), "{err:?}");
    }

    #[test]
    fn in_place_pointwise_matches_out_of_place() {
        let scale = [0.5, -1.5, 2.0];
        let shift = [0.25, 0.0, -1.0];
        for kernel in [
            Kernel::Relu,
            Kernel::Affine { fused_relu: false },
            Kernel::Affine { fused_relu: true },
        ] {
            let params = match kernel {
                Kernel::Relu => TapeParams::None,
                _ => TapeParams::Affine { scale: &scale, shift: &shift },
            };
            let mut out_of_place = registers();
            exec_instr(&mut out_of_place, &instr(kernel.clone(), 0, 1, shape()), params).unwrap();
            let mut in_place = registers();
            exec_instr(&mut in_place, &instr(kernel.clone(), 0, 0, shape()), params).unwrap();
            let want = out_of_place[1].as_ref().unwrap();
            assert_eq!(bits(in_place[0].as_ref().unwrap()), bits(want), "{kernel:?}");
            assert!(want.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}
