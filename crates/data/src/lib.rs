//! Synthetic dataset generators for the RDT evaluation.
//!
//! The paper evaluates on Sequoia, ALOI, Forest Cover Type, MNIST and
//! Imagenet. Those exact datasets are not redistributable with this
//! repository, and what the algorithms actually respond to is their
//! *structure*: representational dimension, intrinsic dimension, cluster
//! layout, and the gap between local (MLE) and global (correlation-
//! dimension) estimates (Table 1). The generators in [`paperlike`]
//! reproduce that structure — low-dimensional (optionally curved) manifolds
//! embedded in the right ambient dimension with calibrated noise — and the
//! crate's tests verify the Table 1 signatures with the estimators from
//! `rknn-lid`. The [`paperlike`] module docs hold the substitution table:
//! each paper dataset, its Table 1 targets and the structure reproduced.
//!
//! [`generic`] provides the building blocks (uniform cubes, Gaussian
//! mixtures, embedded manifolds) used by unit and property tests across the
//! workspace, and [`workload`] samples reproducible query sets.

#![warn(missing_docs)]

pub mod formats;
pub mod generic;
pub mod io;
pub mod paperlike;
pub mod rng;
pub mod workload;

pub use formats::{
    downsample, read_bvecs, read_fvecs, read_idx, read_ivecs, slice_dims, LoadOptions,
};
pub use generic::{
    embedded_manifold, gaussian_blobs, mixed_manifold, uniform_cube, ManifoldSpec, MixComponent,
};
pub use io::{load, load_with, save};
pub use paperlike::{aloi_like, fct_like, imagenet_like, mnist_like, sequoia_like, PaperDataset};
pub use workload::sample_queries;
