//! [`DynamicDataCube`]: an OLAP cube whose dimensions are unbounded.
//!
//! Section 5: "it is more practical to create the data cube initially only
//! for locations of existing star systems; as additional systems are
//! discovered, new cells can be added … The direction of data cube growth
//! should be determined by the data, and not a priori."
//!
//! Unlike [`crate::DataCube`], whose schema fixes each dimension's domain
//! up front, this cube accepts any value: numeric dimensions map onto the
//! signed logical axis (optionally bucketed) and categorical dimensions
//! *learn* labels on first sight. The backing store is
//! [`ddc_core::GrowableCube`], so growth in any direction costs work
//! proportional to the populated cells only.

use std::collections::HashMap;

use ddc_array::AbelianGroup;
use ddc_core::{DdcConfig, GrowableCube};

use crate::dimension::{DimValue, EncodeError};

/// A dimension of a [`DynamicDataCube`] — no domain bounds.
#[derive(Debug)]
pub enum DynamicDimension {
    /// Raw signed integers used as coordinates directly.
    Int {
        /// Attribute name.
        name: String,
    },
    /// Signed integers bucketed into fixed-width intervals (bucket 0
    /// starts at value 0; negative values fall into negative buckets).
    Bucketed {
        /// Attribute name.
        name: String,
        /// Bucket width (> 0).
        width: i64,
    },
    /// Categories assigned dense coordinates in first-seen order.
    Categorical {
        /// Attribute name.
        name: String,
        /// Learned labels (coordinate = position).
        labels: Vec<String>,
        /// Reverse lookup.
        index: HashMap<String, i64>,
    },
}

impl DynamicDimension {
    /// An unbounded integer dimension.
    pub fn int(name: &str) -> Self {
        DynamicDimension::Int {
            name: name.to_string(),
        }
    }

    /// An unbounded bucketed dimension.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn bucketed(name: &str, width: i64) -> Self {
        assert!(width > 0, "bucket width must be positive for '{name}'");
        DynamicDimension::Bucketed {
            name: name.to_string(),
            width,
        }
    }

    /// A categorical dimension that learns labels as records arrive.
    pub fn categorical(name: &str) -> Self {
        DynamicDimension::Categorical {
            name: name.to_string(),
            labels: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        match self {
            DynamicDimension::Int { name }
            | DynamicDimension::Bucketed { name, .. }
            | DynamicDimension::Categorical { name, .. } => name,
        }
    }

    /// Encodes for ingestion: categorical labels are learned on demand.
    fn encode_learning(&mut self, value: &DimValue<'_>) -> Result<i64, EncodeError> {
        match (&mut *self, value) {
            (DynamicDimension::Int { .. }, DimValue::Int(v)) => Ok(*v),
            (DynamicDimension::Bucketed { width, .. }, DimValue::Int(v)) => {
                Ok(v.div_euclid(*width))
            }
            (DynamicDimension::Categorical { labels, index, .. }, DimValue::Str(s)) => {
                if let Some(&i) = index.get(*s) {
                    return Ok(i);
                }
                let i = labels.len() as i64;
                labels.push((*s).to_string());
                index.insert((*s).to_string(), i);
                Ok(i)
            }
            _ => Err(EncodeError::TypeMismatch {
                dimension: self.name().to_string(),
            }),
        }
    }

    /// Encodes for queries: unknown categorical labels are an error
    /// (there is nothing recorded under them).
    fn encode_readonly(&self, value: &DimValue<'_>) -> Result<i64, EncodeError> {
        match (self, value) {
            (DynamicDimension::Int { .. }, DimValue::Int(v)) => Ok(*v),
            (DynamicDimension::Bucketed { width, .. }, DimValue::Int(v)) => {
                Ok(v.div_euclid(*width))
            }
            (DynamicDimension::Categorical { index, name, .. }, DimValue::Str(s)) => index
                .get(*s)
                .copied()
                .ok_or_else(|| EncodeError::UnknownLabel {
                    dimension: name.clone(),
                    label: (*s).to_string(),
                }),
            _ => Err(EncodeError::TypeMismatch {
                dimension: self.name().to_string(),
            }),
        }
    }
}

/// A query bound for one dynamic dimension.
#[derive(Clone, Debug)]
pub enum DynamicRange<'a> {
    /// No constraint.
    All,
    /// Exactly one value.
    Eq(DimValue<'a>),
    /// Inclusive value range.
    Between(DimValue<'a>, DimValue<'a>),
}

/// An OLAP cube over unbounded, data-driven dimensions (§5).
#[derive(Debug)]
pub struct DynamicDataCube<G: AbelianGroup> {
    dims: Vec<DynamicDimension>,
    cube: GrowableCube<G>,
}

impl<G: AbelianGroup> DynamicDataCube<G> {
    /// A cube with the given dimensions and structure configuration.
    pub fn new(dims: Vec<DynamicDimension>, config: DdcConfig) -> Self {
        assert!(!dims.is_empty(), "a data cube needs at least one dimension");
        let d = dims.len();
        Self {
            dims,
            cube: GrowableCube::new(d, config),
        }
    }

    /// Dimensions in coordinate order.
    pub fn dimensions(&self) -> &[DynamicDimension] {
        &self.dims
    }

    /// Adds `delta` to the aggregate at the record's coordinates, growing
    /// the cube and learning new category labels as needed.
    pub fn add(&mut self, coords: &[DimValue<'_>], delta: G) -> Result<(), EncodeError> {
        if coords.len() != self.dims.len() {
            return Err(EncodeError::ArityMismatch {
                expected: self.dims.len(),
                got: coords.len(),
            });
        }
        let mut p = Vec::with_capacity(self.dims.len());
        for (dim, v) in self.dims.iter_mut().zip(coords.iter()) {
            p.push(dim.encode_learning(v)?);
        }
        self.cube.add(&p, delta);
        Ok(())
    }

    /// Range sum over the selected box. Unbounded specs clamp to the
    /// cube's currently covered extent (everything outside is zero).
    pub fn range_sum(&self, ranges: &[DynamicRange<'_>]) -> Result<G, EncodeError> {
        if ranges.len() != self.dims.len() {
            return Err(EncodeError::ArityMismatch {
                expected: self.dims.len(),
                got: ranges.len(),
            });
        }
        let mut lo = Vec::with_capacity(self.dims.len());
        let mut hi = Vec::with_capacity(self.dims.len());
        for (axis, (dim, spec)) in self.dims.iter().zip(ranges.iter()).enumerate() {
            let origin = self.cube.origin()[axis];
            let end = origin + self.cube.extent()[axis] as i64 - 1;
            match spec {
                DynamicRange::All => {
                    lo.push(origin);
                    hi.push(end);
                }
                DynamicRange::Eq(v) => {
                    let i = dim.encode_readonly(v)?;
                    lo.push(i);
                    hi.push(i);
                }
                DynamicRange::Between(a, b) => {
                    let (mut l, mut h) = (dim.encode_readonly(a)?, dim.encode_readonly(b)?);
                    if l > h {
                        std::mem::swap(&mut l, &mut h);
                    }
                    lo.push(l);
                    hi.push(h);
                }
            }
        }
        // Fully outside the covered extent ⇒ zero.
        for axis in 0..self.dims.len() {
            let origin = self.cube.origin()[axis];
            let end = origin + self.cube.extent()[axis] as i64 - 1;
            if hi[axis] < origin || lo[axis] > end {
                return Ok(G::ZERO);
            }
        }
        Ok(self.cube.range_sum(&lo, &hi))
    }

    /// Sum of the whole cube.
    pub fn total(&self) -> G {
        self.cube.total()
    }

    /// The backing growable cube (diagnostics).
    pub fn storage(&self) -> &GrowableCube<G> {
        &self.cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_catalog_style_usage() {
        let mut cube: DynamicDataCube<i64> = DynamicDataCube::new(
            vec![DynamicDimension::int("x"), DynamicDimension::int("y")],
            DdcConfig::dynamic(),
        );
        cube.add(&[5.into(), 5.into()], 1).unwrap();
        cube.add(&[(-10_000).into(), 99.into()], 1).unwrap();
        cube.add(&[123_456.into(), (-77).into()], 1).unwrap();
        assert_eq!(cube.total(), 3);
        assert_eq!(
            cube.range_sum(&[
                DynamicRange::Between((-20_000).into(), 0.into()),
                DynamicRange::All
            ])
            .unwrap(),
            1
        );
        assert_eq!(
            cube.range_sum(&[
                DynamicRange::Eq(123_456.into()),
                DynamicRange::Eq((-77).into())
            ])
            .unwrap(),
            1
        );
    }

    #[test]
    fn categorical_labels_are_learned() {
        let mut cube: DynamicDataCube<i64> = DynamicDataCube::new(
            vec![
                DynamicDimension::categorical("station"),
                DynamicDimension::bucketed("t", 60),
            ],
            DdcConfig::dynamic(),
        );
        cube.add(&["alpha".into(), 30.into()], 10).unwrap();
        cube.add(&["beta".into(), 90.into()], 20).unwrap();
        cube.add(&["alpha".into(), 61.into()], 5).unwrap();
        // Querying a known label works; unknown labels are an error.
        assert_eq!(
            cube.range_sum(&[DynamicRange::Eq("alpha".into()), DynamicRange::All])
                .unwrap(),
            15
        );
        assert!(cube
            .range_sum(&[DynamicRange::Eq("gamma".into()), DynamicRange::All])
            .is_err());
        // Bucket arithmetic: values 60..119 share bucket 1.
        assert_eq!(
            cube.range_sum(&[
                DynamicRange::All,
                DynamicRange::Between(60.into(), 119.into())
            ])
            .unwrap(),
            25
        );
    }

    #[test]
    fn negative_values_bucket_with_euclidean_division() {
        let mut cube: DynamicDataCube<i64> = DynamicDataCube::new(
            vec![DynamicDimension::bucketed("t", 10)],
            DdcConfig::dynamic(),
        );
        cube.add(&[(-1).into()], 7).unwrap(); // bucket -1 (covers -10..-1)
        cube.add(&[(-10).into()], 3).unwrap(); // also bucket -1
        cube.add(&[(-11).into()], 1).unwrap(); // bucket -2
        assert_eq!(
            cube.range_sum(&[DynamicRange::Between((-10).into(), (-1).into())])
                .unwrap(),
            10
        );
        assert_eq!(cube.total(), 11);
    }

    #[test]
    fn queries_outside_coverage_are_zero() {
        let mut cube: DynamicDataCube<i64> =
            DynamicDataCube::new(vec![DynamicDimension::int("x")], DdcConfig::dynamic());
        cube.add(&[0.into()], 5).unwrap();
        assert_eq!(
            cube.range_sum(&[DynamicRange::Between(1_000_000.into(), 2_000_000.into())])
                .unwrap(),
            0
        );
    }
}
